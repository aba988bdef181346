package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/flix"
	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/xmlgraph"
)

// This file defines the wire protocol between the router and the shards.
// Both sides import it (internal/server implements the shard endpoints), so
// the wire shapes have exactly one definition.

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
	Entries []flix.FrontierEntry
	// Tag is the target element name; empty means the wildcard.
	Tag string
	// MaxDist prunes paths longer than this many edges (0 = unlimited).
	MaxDist int32
	// K is the gather's top-k need (0 = unbounded): the shard returns the
	// K-prefix of its results and stops evaluating once it is final
	// (flix.PartialOptions.MaxResults).  K travels with every frontier
	// batch of a gather, unchanged.
	K int
	// Trace asks the shard to evaluate under a bounded obs.Trace and
	// attach a TraceFragment to the response.  The untraced path is the
	// default and stays allocation-free on the shard.
	Trace bool
}

// EvalResponse is the shard's answer: local matches plus the frontier
// entries that crossed into foreign meta documents.
type EvalResponse struct {
	// Results are matching elements in owned meta documents, minimum
	// distance per node, sorted by (dist, node); under EvalRequest.K the
	// first K of them.
	Results []flix.FrontierEntry
	// Hops are frontier entries landing in foreign meta documents, minimum
	// distance per node, sorted by (dist, node); under EvalRequest.K those
	// up to the distance band the shard stopped at.
	Hops []flix.FrontierEntry
	// Generation is the shard's serving index generation.
	Generation uint64
	// Fingerprint is the shard's meta-document decomposition fingerprint
	// (hex); the router drops responses that disagree with the topology.
	Fingerprint string
	// Truncated reports that the shard's evaluation was cut short (RPC
	// deadline); the router marks the query partial.
	Truncated bool
	// Pops, Entries and LinkHops are the shard-side evaluation effort.
	Pops     int64
	Entries  int64
	LinkHops int64
	// Trace is the shard's distributed-trace fragment, present only when
	// EvalRequest.Trace (or the X-Flix-Trace header) asked for one.
	Trace *obs.TraceFragment
}

// The eval RPC is the one hot exchange between the tiers — every round of
// every gather — so both directions speak a hand-written binary frame
// instead of JSON (DESIGN §3g has the layout as a table).  Every number is
// a uvarint; an int32 travels as its uint32 bit pattern, so any value
// round-trips; a string or blob is its length, then its bytes; a slice of
// entries is its count, then (node, dist) pairs.  The trace fragment is
// cold and large-ish, so it stays JSON, as a blob at the end.  There is no
// JSON fallback: router and shards already have to agree on ring and
// fingerprint, so they are deployed together.

// FrameContentType is the Content-Type of both eval frames.
const FrameContentType = "application/x-flix-frame"

// frameVersion is the first byte of both frames.
const frameVersion = 1

// Flag bits of the byte after the version.
const (
	reqFlagTrace      = 1 << 0
	respFlagTruncated = 1 << 0
	respFlagTrace     = 1 << 1
)

func appendI32(buf []byte, v int32) []byte { return binary.AppendUvarint(buf, uint64(uint32(v))) }

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

func appendEntries(buf []byte, es []flix.FrontierEntry) []byte {
	// Three bytes of node and one of distance is the common entry; growing
	// once for six spares the append loop its doublings.
	buf = slices.Grow(buf, binary.MaxVarintLen32+6*len(es))
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = appendI32(appendI32(buf, int32(e.Node)), e.Dist)
	}
	return buf
}

// AppendFrame appends the request's frame to buf.
func (r *EvalRequest) AppendFrame(buf []byte) []byte {
	var flags byte
	if r.Trace {
		flags |= reqFlagTrace
	}
	buf = append(buf, frameVersion, flags)
	buf = binary.AppendUvarint(buf, uint64(max(r.K, 0)))
	buf = appendI32(buf, r.MaxDist)
	buf = appendString(buf, r.Tag)
	return appendEntries(buf, r.Entries)
}

// DecodeFrame fills the request from one frame; b is not retained.
func (r *EvalRequest) DecodeFrame(b []byte) error {
	c := frameCursor{b: b}
	flags := c.header(reqFlagTrace)
	k := c.uvarint()
	if k > math.MaxInt32 {
		c.fail("k %d out of range", k)
	}
	*r = EvalRequest{
		Trace:   flags&reqFlagTrace != 0,
		K:       int(k),
		MaxDist: c.i32(),
		Tag:     string(c.blob()),
		Entries: c.entries(),
	}
	return c.end()
}

// AppendFrame appends the response's frame to buf.
func (r *EvalResponse) AppendFrame(buf []byte) ([]byte, error) {
	var flags byte
	if r.Truncated {
		flags |= respFlagTruncated
	}
	if r.Trace != nil {
		flags |= respFlagTrace
	}
	buf = append(buf, frameVersion, flags)
	buf = binary.AppendUvarint(buf, r.Generation)
	buf = binary.AppendUvarint(buf, uint64(r.Pops))
	buf = binary.AppendUvarint(buf, uint64(r.Entries))
	buf = binary.AppendUvarint(buf, uint64(r.LinkHops))
	buf = appendString(buf, r.Fingerprint)
	buf = appendEntries(buf, r.Results)
	buf = appendEntries(buf, r.Hops)
	if r.Trace != nil {
		tr, err := json.Marshal(r.Trace)
		if err != nil {
			return nil, fmt.Errorf("eval frame: trace fragment: %w", err)
		}
		buf = append(binary.AppendUvarint(buf, uint64(len(tr))), tr...)
	}
	return buf, nil
}

// DecodeFrame fills the response from one frame; b is not retained.
func (r *EvalResponse) DecodeFrame(b []byte) error {
	c := frameCursor{b: b}
	flags := c.header(respFlagTruncated | respFlagTrace)
	*r = EvalResponse{
		Truncated:   flags&respFlagTruncated != 0,
		Generation:  c.uvarint(),
		Pops:        int64(c.uvarint()),
		Entries:     int64(c.uvarint()),
		LinkHops:    int64(c.uvarint()),
		Fingerprint: string(c.blob()),
		Results:     c.entries(),
		Hops:        c.entries(),
	}
	if flags&respFlagTrace != 0 {
		if tr := c.blob(); c.err == nil {
			r.Trace = new(obs.TraceFragment)
			if err := json.Unmarshal(tr, r.Trace); err != nil {
				c.fail("trace fragment: %v", err)
			}
		}
	}
	return c.end()
}

// frameCursor reads a frame front to back.  The first malformed field
// sticks as err and every later read returns zero, so a decoder reads its
// fields in one expression and checks once, in end.  No read allocates
// more than the bytes that remain could hold.
type frameCursor struct {
	b   []byte
	err error
}

func (c *frameCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("eval frame: "+format, args...)
	}
}

// header checks the version byte and returns the flags byte, which may
// carry only the known bits.
func (c *frameCursor) header(known byte) byte {
	switch {
	case len(c.b) < 2:
		c.fail("truncated header")
	case c.b[0] == '{' || c.b[0] == '[':
		c.fail("body is JSON; /v1/shard/eval speaks the version-%d binary frame only", frameVersion)
	case c.b[0] != frameVersion:
		c.fail("unknown version %d (this side speaks %d)", c.b[0], frameVersion)
	case c.b[1]&^known != 0:
		c.fail("unknown flag bits %#x", c.b[1]&^known)
	}
	if c.err != nil {
		return 0
	}
	flags := c.b[1]
	c.b = c.b[2:]
	return flags
}

func (c *frameCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n == 0 {
		c.fail("truncated")
		return 0
	}
	if n < 0 {
		c.fail("varint overflows 64 bits")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *frameCursor) i32() int32 {
	v := c.uvarint()
	if v > math.MaxUint32 {
		c.fail("value %d overflows 32 bits", v)
		return 0
	}
	return int32(uint32(v))
}

// blob returns the next length-prefixed byte string, aliasing the frame.
func (c *frameCursor) blob() []byte {
	n := c.uvarint()
	if n > uint64(len(c.b)) {
		c.fail("length %d exceeds the %d bytes left", n, len(c.b))
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *frameCursor) entries() []flix.FrontierEntry {
	n := c.uvarint()
	if n > uint64(len(c.b))/2 { // an entry is at least two bytes
		c.fail("count %d exceeds the %d bytes left", n, len(c.b))
	}
	if c.err != nil || n == 0 {
		return nil
	}
	out := make([]flix.FrontierEntry, n)
	for i := range out {
		out[i] = flix.FrontierEntry{Node: xmlgraph.NodeID(c.i32()), Dist: c.i32()}
	}
	if c.err != nil {
		return nil
	}
	return out
}

// end reports the first decoding error, or bytes left over.
func (c *frameCursor) end() error {
	if c.err == nil && len(c.b) > 0 {
		c.fail("%d trailing bytes", len(c.b))
	}
	return c.err
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
