package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// The eval stream: the router opens a connection with one upgrade request
// to EvalPath (Connection: Upgrade, Upgrade: EvalProtocol), the shard
// answers 101, and from then on every RPC is one record each way:
//
//	request  u32 length | u8 ID length, up to 64 ID bytes | eval frame
//	answer   u32 length | u16 status | eval frame on 200, error text otherwise
//
// A length counts the bytes after it, big-endian like the status.

const (
	// EvalPath is the endpoint an eval stream's upgrade request targets.
	EvalPath = "/v1/shard/eval"
	// EvalProtocol is the Upgrade token of an eval stream; it names the
	// frame version its records carry.
	EvalProtocol = "flix-eval/2"
	// MaxRecord bounds a record's length, request or answer (64 MiB); a
	// longer one is refused whole, not read.
	MaxRecord = 64 << 20
	// maxRequestID is the longest request ID a record carries, which is
	// the longest front.SanitizeRequestID accepts.
	maxRequestID = 64
	// keptRecord is the largest buffer a RecordReader keeps for the next
	// record; a rare huge one must not stay pinned by its stream.
	keptRecord = 1 << 20
)

// ErrBadRecord is a record that cannot be read: longer than MaxRecord,
// or malformed.  A stream that meets one has lost its framing.
var ErrBadRecord = errors.New("bad eval record")

// AppendRequest appends one request record to buf: reqID, which must be
// at most 64 bytes (a longer one is left out), and req's eval frame.
func AppendRequest(buf []byte, reqID string, req *EvalRequest) []byte {
	if len(reqID) > maxRequestID {
		reqID = ""
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, byte(len(reqID)))
	buf = req.AppendFrame(append(buf, reqID...))
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// AppendAnswer appends one answer record to buf: status, then the eval
// frame on 200 or the error text otherwise.
func AppendAnswer(buf []byte, status int, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(2+len(payload)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(status))
	return append(buf, payload...)
}

// RecordReader reads the records of one stream into a buffer it reuses:
// what a read returns is valid until the next read.  The buffer grows only
// as bytes arrive, to at most twice what has arrived, so a forged length
// sizes no allocation.
type RecordReader struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
}

// NewRecordReader reads records from r.
func NewRecordReader(r io.Reader) *RecordReader { return &RecordReader{r: r} }

// Request reads one request record and returns its request ID and eval
// frame.  An error is ErrBadRecord or the reader's.
func (rr *RecordReader) Request() (reqID, frame []byte, err error) {
	b, err := rr.next(1)
	if err != nil {
		return nil, nil, err
	}
	n := int(b[0])
	if n > maxRequestID || 1+n > len(b) {
		return nil, nil, fmt.Errorf("%w: a request ID of %d bytes in a record of %d", ErrBadRecord, n, len(b))
	}
	return b[1 : 1+n], b[1+n:], nil
}

// Answer reads one answer record and returns its status and payload.  An
// error is ErrBadRecord or the reader's.
func (rr *RecordReader) Answer() (status int, payload []byte, err error) {
	b, err := rr.next(2)
	if err != nil {
		return 0, nil, err
	}
	status = int(binary.BigEndian.Uint16(b))
	if status < 100 || status > 599 {
		return 0, nil, fmt.Errorf("%w: status %d", ErrBadRecord, status)
	}
	return status, b[2:], nil
}

// next reads one record's length and then its bytes, of which there must
// be at least floor.
func (rr *RecordReader) next(floor int) ([]byte, error) {
	if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(rr.hdr[:])
	if n > MaxRecord {
		return nil, fmt.Errorf("%w: %d bytes exceed the limit of %d", ErrBadRecord, n, MaxRecord)
	}
	if int(n) < floor {
		return nil, fmt.Errorf("%w: length %d, want at least %d", ErrBadRecord, n, floor)
	}
	b := rr.buf[:0]
	if cap(b) > keptRecord {
		b = nil
	}
	for len(b) < int(n) {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(int(n)-len(b), max(len(b), 512)))
		}
		m, err := rr.r.Read(b[len(b):min(cap(b), int(n))])
		b = b[:len(b)+m]
		if err != nil && len(b) < int(n) {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			rr.buf = b
			return nil, err
		}
	}
	rr.buf = b
	return b, nil
}
