// Package wire is the service mode's transport: the protocol run over
// real sockets instead of function calls. A client process (the load
// generator, cmd/saer-client, or the churn scheduler's wire executor)
// drives one core.Driver per session whose ServerBank speaks this
// package's frame protocol to one server-shard process per contiguous
// server window (cmd/saer-server). Because the bank interface carries
// one batched (server, count) message per round — not per-ball messages
// — and the server side reuses core.ServerShard verbatim, a loopback
// wire run reproduces the in-process core.Config.Run result bit for bit; the
// equivalence tests and the CI service smoke pin exactly that.
//
// Frame format (protocol version 2): every frame is length-prefixed,
//
//	uint32 LE  frame size (type byte + session id + payload chunk)
//	uint8      message type; bit 0x80 marks a continuation fragment
//	uint32 LE  session id
//	payload    little-endian fixed-width integers, layout per type
//
// Integer arrays are written as a uint32 count followed by the raw
// int32 values — compact, allocation-free to encode, and O(1) to size.
//
// Two version-2 additions carry the scaled-up client:
//
//   - Sessions: every frame names the session it belongs to, and the
//     per-session server state (one core.ServerShard per Hello'd id) is
//     keyed by it, so N independent protocol sessions multiplex over one
//     connection per shard. Replies echo the request's session id; a
//     server processes a connection's messages strictly in order, so
//     replies come back in request order (the client's conn-level FIFO
//     matching relies on it).
//
//   - Spilling: a logical message larger than maxFrameSize is written as
//     a run of continuation fragments (type | frameCont) followed by one
//     final frame with the plain type, all with the same session id and
//     contiguous on the connection; readMessage reassembles them. A
//     round batch therefore never fails on size — the frame limit bounds
//     a single corrupt length prefix, not a round.
//
// The session opens with a Hello that carries the protocol identity
// (variant, capacity) and the shard window the client expects, so a
// server process needs no protocol configuration of its own and a
// restarted server is indistinguishable from one that stayed up.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// Message types.
const (
	msgHello      = 1  // client→server: magic, version, variant, capacity, window
	msgHelloOK    = 2  // server→client: window accepted
	msgReset      = 3  // client→server: re-initialize the session's shard (optional initial loads)
	msgResetOK    = 4  // server→client
	msgRound      = 5  // client→server: one round's (server, count) batch
	msgRoundReply = 6  // server→client: accepted list, newly-burned list, saturated count
	msgLoads      = 7  // client→server: request the load window
	msgLoadsReply = 8  // server→client: the window's int32 loads
	msgReport     = 9  // client→server: request the shard's service tally
	msgReportOK   = 10 // server→client: Report fields
	msgError      = 11 // server→client: fatal session error (UTF-8 message)

	// frameCont marks a continuation fragment: the frame carries a
	// non-final chunk of its logical message's payload, and more frames
	// of the same (type, session) follow contiguously.
	frameCont = 0x80
)

const (
	// helloMagic guards against a stray client dialing the wrong port.
	helloMagic = 0x53414552 // "SAER"
	// protoVersion is bumped on any incompatible frame-layout change.
	// Version 2: session ids in every frame header + continuation
	// (spill) fragments.
	protoVersion = 2
	// frameHeaderSize is the non-payload portion counted by the length
	// prefix: the type byte plus the session id.
	frameHeaderSize = 5
	// maxFrameSize bounds one frame. A round batch larger than this is
	// not an error: writeMessage spills it across continuation
	// fragments. The limit exists so a corrupt length prefix fails fast
	// instead of allocating gigabytes.
	maxFrameSize = 1 << 28
	// maxMessageSize bounds a reassembled logical message (the sum of a
	// fragment run's payload chunks): far beyond any round batch the
	// n = 2²² sweeps produce, but finite, so a corrupt stream cannot
	// grow the reassembly buffer without bound.
	maxMessageSize = 1 << 31
)

// Report is a server process's cumulative service tally, summed over
// every session it served since it started. The aggregator folds these
// per-shard tallies into the JSON record stream.
type Report struct {
	// Sessions is the number of Hello handshakes served.
	Sessions uint64
	// Rounds is the number of round frames decided.
	Rounds uint64
	// Requests is the total number of ball requests received (the sum of
	// every round frame's counts).
	Requests uint64
	// Accepted is the total number of requests accepted.
	Accepted uint64
	// DecideNanos is the cumulative time spent inside the threshold
	// decisions (excluding transport reads/writes).
	DecideNanos uint64
}

// frameConn wraps one side of a connection with buffered frame I/O and
// reusable payload buffers. The read half (readMessage and its buffers)
// and the write half (writeMessage and its header scratch) may be used
// from one goroutine each, concurrently with each other — the pipelined
// client conn has a persistent reader goroutine while callers write.
// Neither half may be shared by two goroutines.
type frameConn struct {
	r io.Reader
	w io.Writer

	// limit is the per-frame size cap: maxFrameSize in production,
	// lowered by tests to exercise spilling without gigabyte payloads.
	limit int

	rbuf []byte  // reused frame read buffer
	msg  []byte  // reused reassembly buffer for spilled messages
	rhdr [4]byte // read-side length prefix scratch
	whdr [9]byte // write-side header scratch (length + type + session)

	// Optional telemetry, set once at construction: tx/rx count bytes on
	// the socket (length prefixes included), spills counts continuation
	// fragments written. The counters are nil-receiver-safe, so the
	// un-instrumented path is one nil test per frame.
	tx, rx, spills *telemetry.Counter
}

func newFrameConn(rw io.ReadWriter) *frameConn {
	return &frameConn{r: rw, w: rw, limit: maxFrameSize}
}

// writeFrame sends one raw frame (a single fragment).
func (c *frameConn) writeFrame(typ byte, session uint32, chunk []byte) error {
	binary.LittleEndian.PutUint32(c.whdr[0:], uint32(frameHeaderSize+len(chunk)))
	c.whdr[4] = typ
	binary.LittleEndian.PutUint32(c.whdr[5:], session)
	if _, err := c.w.Write(c.whdr[:]); err != nil {
		return err
	}
	if len(chunk) > 0 {
		if _, err := c.w.Write(chunk); err != nil {
			return err
		}
	}
	c.tx.Add(0, int64(len(c.whdr)+len(chunk)))
	return nil
}

// writeMessage sends one logical message, spilling the payload across
// continuation fragments when it exceeds the frame limit. Fragments are
// written back to back, so a logical message occupies a contiguous run
// of frames on the connection.
func (c *frameConn) writeMessage(typ byte, session uint32, payload []byte) error {
	maxChunk := c.limit - frameHeaderSize
	for len(payload) > maxChunk {
		if err := c.writeFrame(typ|frameCont, session, payload[:maxChunk]); err != nil {
			return err
		}
		c.spills.Inc(0)
		payload = payload[maxChunk:]
	}
	return c.writeFrame(typ, session, payload)
}

// readFrame reads one raw frame into the reused buffer, returning the
// type byte (continuation bit included) and the payload chunk (valid
// until the next read).
func (c *frameConn) readFrame() (typ byte, session uint32, chunk []byte, err error) {
	if _, err = io.ReadFull(c.r, c.rhdr[:]); err != nil {
		return 0, 0, nil, err
	}
	size := binary.LittleEndian.Uint32(c.rhdr[:])
	if size < frameHeaderSize || int64(size) > int64(c.limit) {
		return 0, 0, nil, fmt.Errorf("wire: frame size %d out of range", size)
	}
	if cap(c.rbuf) < int(size) {
		c.rbuf = make([]byte, size)
	}
	c.rbuf = c.rbuf[:size]
	if _, err = io.ReadFull(c.r, c.rbuf); err != nil {
		return 0, 0, nil, err
	}
	c.rx.Add(0, int64(len(c.rhdr)+len(c.rbuf)))
	typ = c.rbuf[0]
	session = binary.LittleEndian.Uint32(c.rbuf[1:])
	return typ, session, c.rbuf[frameHeaderSize:], nil
}

// readMessage reads one logical message, reassembling continuation
// fragments. The returned payload is valid until the next read. An
// error-frame message is surfaced as an error.
func (c *frameConn) readMessage() (typ byte, session uint32, payload []byte, err error) {
	typ, session, payload, err = c.readFrame()
	if err != nil {
		return 0, 0, nil, err
	}
	if typ&frameCont != 0 {
		// Spilled message: accumulate fragments until the final frame.
		want := typ &^ frameCont
		c.msg = append(c.msg[:0], payload...)
		for typ&frameCont != 0 {
			var fragSession uint32
			typ, fragSession, payload, err = c.readFrame()
			if err != nil {
				return 0, 0, nil, err
			}
			if typ&^frameCont != want || fragSession != session {
				return 0, 0, nil, fmt.Errorf("wire: interleaved fragments (type %d session %d inside type %d session %d)",
					typ&^frameCont, fragSession, want, session)
			}
			if len(c.msg)+len(payload) > maxMessageSize {
				return 0, 0, nil, fmt.Errorf("wire: spilled message exceeds %d bytes", maxMessageSize)
			}
			c.msg = append(c.msg, payload...)
		}
		payload = c.msg
		typ = want
	}
	if typ == msgError {
		return typ, session, nil, &serverError{msg: string(payload)}
	}
	return typ, session, payload, nil
}

// serverError is a fatal error the server reported in an error frame —
// a semantic rejection (bad handshake, malformed round), as opposed to a
// transport failure. The redial logic treats it as permanent: retrying
// the same request against a restarted server would fail identically.
type serverError struct{ msg string }

func (e *serverError) Error() string { return "wire: server error: " + e.msg }

// expectMessage reads one logical message and checks its type.
func (c *frameConn) expectMessage(want byte) (session uint32, payload []byte, err error) {
	typ, session, payload, err := c.readMessage()
	if err != nil {
		return session, nil, err
	}
	if typ != want {
		return session, nil, fmt.Errorf("wire: expected message type %d, got %d", want, typ)
	}
	return session, payload, nil
}

// Payload append helpers: frames are assembled into a scratch slice and
// written in one piece.

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendI32(b []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

// appendI32Slice writes a counted int32 array. The buffer is grown once
// and filled with a tight PutUint32 loop — this is the round-batch
// encode hot path, where per-element append calls showed up in the wire
// profile.
func appendI32Slice(b []byte, vs []int32) []byte {
	need := 4 + 4*len(vs)
	if cap(b)-len(b) < need {
		nb := make([]byte, len(b), len(b)+need+len(b)/2)
		copy(nb, b)
		b = nb
	}
	off := len(b)
	b = b[:off+need]
	binary.LittleEndian.PutUint32(b[off:], uint32(len(vs)))
	off += 4
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[off:], uint32(v))
		off += 4
	}
	return b
}

// reader is a cursor over a frame payload.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated frame payload")
	}
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// i32Slice reads a counted int32 array, appending into dst.
func (r *reader) i32Slice(dst []int32) []int32 {
	k := int(r.u32())
	if r.err != nil {
		return dst
	}
	if k < 0 || r.off+4*k > len(r.b) {
		r.fail()
		return dst
	}
	for i := 0; i < k; i++ {
		dst = append(dst, int32(binary.LittleEndian.Uint32(r.b[r.off+4*i:])))
	}
	r.off += 4 * k
	return dst
}

// done checks that the payload was consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes in frame payload", len(r.b)-r.off)
	}
	return nil
}
