package shard

import (
	"repro/internal/flix"
	"repro/internal/front"
	"repro/internal/obs"
)

// This file defines the wire protocol between the router and the shards.
// Both sides import it (internal/server implements the shard endpoints), so
// the JSON shapes have exactly one definition.

// RequestIDHeader carries the router's request ID to every shard RPC a
// query fans out into.
const RequestIDHeader = front.RequestIDHeader

// FailedShardsHeader lists the shards (comma-separated IDs) whose frontier
// batches were dropped after retries; it accompanies a partial response.
const FailedShardsHeader = "X-Flix-Shards-Failed"

// TraceHeader ("1" when set) asks a shard to evaluate under a bounded
// obs.Trace and return a TraceFragment in the response.  It travels beside
// RequestIDHeader so intermediaries can sample traces without parsing
// bodies; EvalRequest.Trace is the authoritative in-body copy.
const TraceHeader = "X-Flix-Trace"

// EvalRequest is the body of POST /v1/shard/eval: one batch of frontier
// entries to expand within the shard's owned meta documents.
type EvalRequest struct {
	// Entries is the frontier batch (query starts or re-dispatched hops).
	Entries []flix.FrontierEntry `json:"entries"`
	// Tag is the target element name; empty means the wildcard.
	Tag string `json:"tag"`
	// MaxDist prunes paths longer than this many edges (0 = unlimited).
	MaxDist int32 `json:"maxDist,omitempty"`
	// Trace asks the shard to evaluate under a bounded obs.Trace and
	// attach a TraceFragment to the response.  The untraced path is the
	// default and stays allocation-free on the shard.
	Trace bool `json:"trace,omitempty"`
}

// EvalResponse is the shard's answer: local matches plus the frontier
// entries that crossed into foreign meta documents.
type EvalResponse struct {
	// Results are matching elements in owned meta documents, minimum
	// distance per node, sorted by (dist, node).
	Results []flix.FrontierEntry `json:"results"`
	// Hops are frontier entries landing in foreign meta documents, minimum
	// distance per node, sorted by (dist, node).
	Hops []flix.FrontierEntry `json:"hops"`
	// Generation is the shard's serving index generation.
	Generation uint64 `json:"generation"`
	// Fingerprint is the shard's meta-document decomposition fingerprint
	// (hex); the router drops responses that disagree with the topology.
	Fingerprint string `json:"fingerprint"`
	// Truncated reports that the shard's evaluation was cut short (RPC
	// deadline); the router marks the query partial.
	Truncated bool `json:"truncated,omitempty"`
	// Pops, Entries and LinkHops are the shard-side evaluation effort.
	Pops     int64 `json:"pops"`
	Entries  int64 `json:"entries"`
	LinkHops int64 `json:"linkHops"`
	// Trace is the shard's distributed-trace fragment, present only when
	// EvalRequest.Trace (or the X-Flix-Trace header) asked for one.
	Trace *obs.TraceFragment `json:"trace,omitempty"`
}

// LinksResponse is the body of GET /v1/shard/links: the shard's view of the
// cluster topology — the link-export endpoint the router bootstraps from.
type LinksResponse struct {
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	// Shard, Shards and VNodes echo the shard's ring parameters; the router
	// refuses shards whose ring disagrees with its own.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	VNodes int `json:"vnodes"`
	// NumMetas and NumNodes describe the decomposition.
	NumMetas int `json:"numMetas"`
	NumNodes int `json:"numNodes"`
	// OwnedMetas counts the meta documents this shard owns.
	OwnedMetas int `json:"ownedMetas"`
	// MetaOf is the node→meta assignment (omitted with ?summary=1).
	MetaOf []int32 `json:"metaOf,omitempty"`
	// LinkCounts is the per-meta runtime out-link count (omitted with
	// ?summary=1).
	LinkCounts []int32 `json:"linkCounts,omitempty"`
}

// The POST /v1/batch wire types belong to the public contract and live in
// internal/front; these aliases keep the names callers of this package use.
const (
	BatchOK      = front.BatchOK
	BatchError   = front.BatchError
	BatchSkipped = front.BatchSkipped
)

type (
	BatchQuery    = front.BatchQuery
	BatchRequest  = front.BatchRequest
	BatchResult   = front.BatchResult
	BatchItem     = front.BatchItem
	BatchResponse = front.BatchResponse
)

// HealthResponse is the subset of a shard's /healthz the router's prober
// consumes: readiness plus the backpressure signal (inFlight/maxInFlight).
type HealthResponse struct {
	Ready       bool   `json:"ready"`
	Generation  uint64 `json:"generation"`
	InFlight    int    `json:"inFlight"`
	MaxInFlight int    `json:"maxInFlight"`
	Shard       *struct {
		ID          int    `json:"id"`
		Count       int    `json:"count"`
		Fingerprint string `json:"fingerprint"`
	} `json:"shard"`
}
