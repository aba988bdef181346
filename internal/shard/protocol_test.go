package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/flix"
	"repro/internal/obs"
)

// frameRequests and frameResponses are the round-trip table and the fuzz
// seeds: empty and nil slices, both ends of int32, traced and untraced.
var frameRequests = []EvalRequest{
	{},
	{Entries: []flix.FrontierEntry{}, Tag: ""},
	{Entries: []flix.FrontierEntry{{Node: 0, Dist: 0}}, Tag: "author", K: 101},
	{Entries: []flix.FrontierEntry{{Node: math.MaxInt32, Dist: math.MaxInt32}, {Node: -1, Dist: math.MinInt32}},
		Tag: "täg\x00 with bytes", MaxDist: math.MaxInt32, K: math.MaxInt32, Trace: true},
	{Entries: []flix.FrontierEntry{{Node: 7, Dist: 3}, {Node: 300, Dist: 128}, {Node: 1 << 20, Dist: 16384}}, MaxDist: 9},
}

var frameResponses = []EvalResponse{
	{},
	{Results: []flix.FrontierEntry{}, Hops: []flix.FrontierEntry{}},
	{Results: []flix.FrontierEntry{{Node: 1, Dist: 1}, {Node: 2, Dist: 1}}, Hops: []flix.FrontierEntry{{Node: 90, Dist: 4}},
		Generation: 3, Fingerprint: "ddd8754edde35b76", Pops: 12, Entries: 9, LinkHops: 40},
	{Results: []flix.FrontierEntry{{Node: math.MaxInt32, Dist: math.MaxInt32}}, Hops: []flix.FrontierEntry{{Node: -1, Dist: math.MinInt32}},
		Generation: math.MaxUint64, Truncated: true, Pops: math.MaxInt64, Entries: -1, LinkHops: math.MinInt64},
	{Hops: []flix.FrontierEntry{{Node: 5, Dist: 2}}, Fingerprint: "f", Truncated: true,
		Trace: &obs.TraceFragment{Shard: 1, Generation: 2, Elapsed: 1500 * time.Microsecond, Pops: 4, Results: 2,
			Metas:      []obs.MetaVisit{{Meta: 3, Strategy: "ppo", Entries: 1, Results: 2, Probe: time.Microsecond}},
			Strategies: map[string]obs.StrategyStats{"ppo": {Metas: 1, Entries: 1, Results: 2, Probe: time.Microsecond}}}},
}

// sameRequest and sameResponse compare decoded against encoded values; the
// frame does not tell an empty slice from a nil one.
func sameRequest(a, b EvalRequest) bool {
	return a.Tag == b.Tag && a.MaxDist == b.MaxDist && a.K == b.K && a.Trace == b.Trace && sameEntries(a.Entries, b.Entries)
}

func sameResponse(a, b EvalResponse) bool {
	return a.Generation == b.Generation && a.Fingerprint == b.Fingerprint && a.Truncated == b.Truncated &&
		a.Pops == b.Pops && a.Entries == b.Entries && a.LinkHops == b.LinkHops &&
		sameEntries(a.Results, b.Results) && sameEntries(a.Hops, b.Hops) && reflect.DeepEqual(a.Trace, b.Trace)
}

func sameEntries(a, b []flix.FrontierEntry) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func mustFrame(t testing.TB, r *EvalResponse) []byte {
	t.Helper()
	b, err := r.AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEvalFrameRoundTrip checks decode(encode(x)) == x in both directions,
// and that AppendFrame appends.
func TestEvalFrameRoundTrip(t *testing.T) {
	for i, want := range frameRequests {
		frame := want.AppendFrame([]byte("prefix"))
		if !bytes.HasPrefix(frame, []byte("prefix")) {
			t.Fatalf("request %d: AppendFrame overwrote the buffer it was given", i)
		}
		got := EvalRequest{Tag: "stale", K: 9, Entries: []flix.FrontierEntry{{Node: 1}}}
		if err := got.DecodeFrame(frame[len("prefix"):]); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !sameRequest(got, want) {
			t.Errorf("request %d: decoded %+v, encoded %+v", i, got, want)
		}
	}
	for i, want := range frameResponses {
		got := EvalResponse{Fingerprint: "stale", Truncated: true, Trace: &obs.TraceFragment{}}
		if err := got.DecodeFrame(mustFrame(t, &want)); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !sameResponse(got, want) {
			t.Errorf("response %d: decoded %+v, encoded %+v", i, got, want)
		}
	}
	// A negative limit means none, on the wire as in the router.
	var got EvalRequest
	if err := got.DecodeFrame((&EvalRequest{K: -4}).AppendFrame(nil)); err != nil || got.K != 0 {
		t.Errorf("K=-4 decoded as %d (%v), want 0", got.K, err)
	}
}

// TestEvalFrameMalformed checks that every malformed frame is an error —
// never a panic, never an allocation the body's size does not justify.
func TestEvalFrameMalformed(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"request":  func(b []byte) error { return new(EvalRequest).DecodeFrame(b) },
		"response": func(b []byte) error { return new(EvalResponse).DecodeFrame(b) },
	}
	valid := map[string][][]byte{}
	for i := range frameRequests {
		valid["request"] = append(valid["request"], frameRequests[i].AppendFrame(nil))
	}
	for i := range frameResponses {
		valid["response"] = append(valid["response"], mustFrame(t, &frameResponses[i]))
	}
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	overlong := bytes.Repeat([]byte{0xff}, 11) // an 11-byte varint: more than 64 bits
	frame := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	head := []byte{frameVersion, 0}
	// respHead is a response up to and including an empty fingerprint.
	respHead := frame(head, uv(1, 0, 0, 0, 0))

	for side, decode := range decoders {
		for i, f := range valid[side] {
			if err := decode(f); err != nil {
				t.Fatalf("%s %d: valid frame rejected: %v", side, i, err)
			}
			for cut := 0; cut < len(f); cut++ {
				if err := decode(f[:cut]); err == nil {
					t.Errorf("%s %d: truncated to %d of %d bytes, accepted", side, i, cut, len(f))
				}
			}
			if err := decode(append(f[:len(f):len(f)], 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
				t.Errorf("%s %d: trailing byte: %v", side, i, err)
			}
			other := append([]byte{frameVersion + 1}, f[1:]...)
			if err := decode(other); err == nil || !strings.Contains(err.Error(), "unknown version") {
				t.Errorf("%s %d: version %d: %v", side, i, frameVersion+1, err)
			}
			flagged := append([]byte{frameVersion, f[1] | 0x80}, f[2:]...)
			if err := decode(flagged); err == nil || !strings.Contains(err.Error(), "unknown flag") {
				t.Errorf("%s %d: unknown flag bit: %v", side, i, err)
			}
		}
		if err := decode([]byte(`{"entries":[{"node":0,"dist":0}]}`)); err == nil || !strings.Contains(err.Error(), "JSON") {
			t.Errorf("%s: JSON body: %v", side, err)
		}
	}
	for name, tc := range map[string]struct {
		side, want string
		body       []byte
	}{
		"request k over-long varint":      {"request", "overflows 64", frame(head, overlong)},
		"request k out of range":          {"request", "out of range", frame(head, uv(1<<40, 0, 0, 0))},
		"request maxdist over 32 bits":    {"request", "overflows 32", frame(head, uv(0, 1<<32, 0, 0))},
		"request tag longer than body":    {"request", "exceeds", frame(head, uv(0, 0, 1<<50))},
		"request count beyond the body":   {"request", "count", frame(head, uv(0, 0, 0, 1<<40), []byte{1, 1})},
		"request count a plausible lie":   {"request", "count", frame(head, uv(0, 0, 0, 1<<24), bytes.Repeat([]byte{1}, 64))},
		"request count one too many":      {"request", "count", frame(head, uv(0, 0, 0, 2, 1, 1, 1))},
		"request node over 32 bits":       {"request", "overflows 32", frame(head, uv(0, 0, 0, 1, 1<<32, 0))},
		"request over-long node":          {"request", "overflows 64", frame(head, uv(0, 0, 0, 6), overlong, []byte{1})},
		"response generation over-long":   {"response", "overflows 64", frame(head, overlong)},
		"response fingerprint too long":   {"response", "exceeds", frame(head, uv(1, 0, 0, 0, 9), []byte("short"))},
		"response results beyond body":    {"response", "count", frame(respHead, uv(math.MaxUint64))},
		"response hops beyond body":       {"response", "count", frame(respHead, uv(0, 1<<62), []byte{1, 1, 1, 1})},
		"response dist over 32 bits":      {"response", "overflows 32", frame(respHead, uv(1, 5, 1<<33, 0))},
		"response trace longer than body": {"response", "exceeds", frame([]byte{frameVersion, respFlagTrace}, uv(1, 0, 0, 0, 0, 0, 0, 1<<30), []byte("{}"))},
		"response trace not JSON":         {"response", "trace fragment", frame([]byte{frameVersion, respFlagTrace}, uv(1, 0, 0, 0, 0, 0, 0, 2), []byte("{]"))},
		"response flagged trace missing":  {"response", "truncated", frame([]byte{frameVersion, respFlagTrace}, uv(1, 0, 0, 0, 0, 0, 0))},
	} {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := decoders[tc.side](tc.body)
		runtime.ReadMemStats(&ms1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", name, err, tc.want)
		}
		// An error costs its message; a count or length taken at its word
		// would cost gigabytes.
		if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: rejecting a %d-byte body allocated %d bytes", name, len(tc.body), grew)
		}
	}
}

// FuzzEvalFrame feeds arbitrary bytes to both decoders.  Neither may panic
// or build slices the body could not have carried, and whatever decodes
// must survive a re-encode.
func FuzzEvalFrame(f *testing.F) {
	for i := range frameRequests {
		f.Add(frameRequests[i].AppendFrame(nil))
	}
	for i := range frameResponses {
		f.Add(mustFrame(f, &frameResponses[i]))
	}
	f.Add([]byte(`{"entries":[{"node":0,"dist":0}],"tag":"author"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req EvalRequest
		if err := req.DecodeFrame(data); err == nil {
			if 2*len(req.Entries) > len(data) {
				t.Fatalf("%d entries out of %d bytes", len(req.Entries), len(data))
			}
			var again EvalRequest
			if err := again.DecodeFrame(req.AppendFrame(nil)); err != nil || !sameRequest(again, req) {
				t.Fatalf("request re-encode: %v\n first %+v\n again %+v", err, req, again)
			}
		}
		var resp EvalResponse
		if err := resp.DecodeFrame(data); err == nil {
			if 2*(len(resp.Results)+len(resp.Hops)) > len(data) {
				t.Fatalf("%d results and %d hops out of %d bytes", len(resp.Results), len(resp.Hops), len(data))
			}
			var again EvalResponse
			if err := again.DecodeFrame(mustFrame(t, &resp)); err != nil || !sameJSON(again, resp) {
				t.Fatalf("response re-encode: %v\n first %+v\n again %+v", err, resp, again)
			}
		}
	})
}

// sameJSON compares two responses whose trace fragments came off the wire:
// a fuzzed fragment may hold what DeepEqual treats as different (an empty
// map against none) though it encodes alike.
func sameJSON(a, b EvalResponse) bool {
	ta, _ := json.Marshal(a.Trace)
	tb, _ := json.Marshal(b.Trace)
	a.Trace, b.Trace = nil, nil
	return sameResponse(a, b) && bytes.Equal(ta, tb)
}
