// Package wire is the service mode's transport: the protocol run over
// real sockets instead of function calls. A client process (the load
// generator, cmd/saer-client, or the churn scheduler's wire executor)
// drives one core.Driver per session whose ServerBank speaks this
// package's frame protocol to one server-shard process per contiguous
// server window (cmd/saer-server). Because the bank interface carries
// one batched message per round and shard — a counted round's dense
// per-server counts, or any other round's (server, count) pairs, never
// per-ball messages — and the server side reuses core.ServerShard
// verbatim, a loopback wire run reproduces the in-process
// core.Config.Run result bit for bit; the equivalence tests and the CI
// service smoke pin exactly that.
//
// Frame format (protocol version 3): every frame is length-prefixed,
//
//	uint32 LE  frame size (type byte + session id + payload chunk)
//	uint8      message type; bit 0x80 marks a continuation fragment
//	uint32 LE  session id
//	payload    little-endian fixed-width integers, layout per type
//
// Integer arrays are written as a uint32 count followed by the int32
// values, little-endian — compact, allocation-free to encode, and O(1)
// to size. On a little-endian host the values' wire bytes are the
// array's own memory, so appendI32Slice and reader.i32Slice move a
// whole array with one copy; a big-endian host converts one value at a
// time (the portable path, which the tests also use as the reference).
//
// Version 3 adds the counted round (core.CountedBank), a round handed
// over as dense per-server counts, which is smaller than its pairs once
// the round reaches more than one server in eight. Its request carries
// the shard window's counts, one byte per server (server lo+i's count
// mod 256), as a counted byte array (uint32 count, then the bytes),
// then the wrap entries as a counted int32 array of window cells i
// (server lo+i), ascending, one per further 256 requests. Its reply
// carries the window's accept bitmap, bit i&63 of word i>>6 set when
// server lo+i accepted, ⌈(hi-lo)/64⌉ words, as a counted uint64 array,
// then the newly burned servers as a counted int32 array and the
// saturation count as a uint32, as the round reply does. The layouts of
// every version-2 message are unchanged, and a server refuses a Hello
// of any version but its own, so a version-2 peer is turned away at the
// handshake.
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
	"slices"
	"unsafe"

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
	// Version 3.
	msgCounted      = 12 // client→server: one counted round's window counts and wrap entries
	msgCountedReply = 13 // server→client: window accept bitmap, newly-burned list, saturated count

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
	// (spill) fragments. Version 3: the counted round request and reply.
	protoVersion = 3
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

// nativeLE reports whether this host stores an int32 in the wire's byte
// order, little-endian. Then an int32 array's memory is its wire
// encoding, and the array helpers move it with one copy.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// i32Bytes views the memory of vs as its 4·len(vs) bytes.
func i32Bytes(vs []int32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 4*len(vs))
}

// appendI32Slice writes a counted int32 array: the count, then the
// values. This is the round path's encoder (request batches, replies and
// load vectors), so on a little-endian host the values are one copy of
// the array's bytes, not a conversion per value.
func appendI32Slice(b []byte, vs []int32) []byte {
	if !nativeLE {
		return appendI32SlicePortable(b, vs)
	}
	b = slices.Grow(b, 4+4*len(vs))
	b = appendU32(b, uint32(len(vs)))
	return append(b, i32Bytes(vs)...)
}

// u64Bytes views the memory of vs as its 8·len(vs) bytes.
func u64Bytes(vs []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs))
}

// appendU64Slice writes a counted uint64 array, as appendI32Slice writes
// an int32 one: one copy of the array's bytes on a little-endian host,
// one value at a time elsewhere.
func appendU64Slice(b []byte, vs []uint64) []byte {
	b = slices.Grow(b, 4+8*len(vs))
	b = appendU32(b, uint32(len(vs)))
	if nativeLE {
		return append(b, u64Bytes(vs)...)
	}
	for _, v := range vs {
		b = appendU64(b, v)
	}
	return b
}

// appendI32SlicePortable is appendI32Slice one value at a time, for any
// host byte order: the big-endian path and the tests' reference.
func appendI32SlicePortable(b []byte, vs []int32) []byte {
	off := len(b)
	b = slices.Grow(b, 4+4*len(vs))[:off+4+4*len(vs)]
	binary.LittleEndian.PutUint32(b[off:], uint32(len(vs)))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[off+4+4*i:], uint32(v))
	}
	return b
}

// Payload codecs: the layout of every message body that carries more
// than a header. The client and the server encode and decode through
// these, so the two sides and the fuzz tests share one definition.

// hello is the session handshake: the protocol identity and the shard
// window the client expects.
type hello struct {
	magic, version uint32
	variant        byte
	capacity       int32
	lo, hi         int32
}

func appendHello(b []byte, h hello) []byte {
	b = appendU32(b, h.magic)
	b = appendU32(b, h.version)
	b = append(b, h.variant)
	b = appendI32(b, h.capacity)
	b = appendI32(b, h.lo)
	return appendI32(b, h.hi)
}

func decodeHello(payload []byte) (hello, error) {
	r := reader{b: payload}
	h := hello{magic: r.u32(), version: r.u32(), variant: r.u8(), capacity: r.i32(), lo: r.i32(), hi: r.i32()}
	return h, r.done()
}

// decodeReset decodes a reset request: a flag byte, then, if the flag is
// set, the window's initial loads as a counted array appended to loads.
// Without the flag the loads are nil (all zero).
func decodeReset(payload []byte, loads []int32) ([]int32, error) {
	r := reader{b: payload}
	if r.u8() != 0 {
		loads = r.i32Slice(loads)
	} else {
		loads = nil
	}
	return loads, r.done()
}

// appendRound encodes a round request: one shard's ascending touched
// servers and their counts.
func appendRound(b []byte, touched, counts []int32) []byte {
	return appendI32Slice(appendI32Slice(b, touched), counts)
}

// decodeRound decodes a round request, appending to touched and counts.
func decodeRound(payload []byte, touched, counts []int32) ([]int32, []int32, error) {
	r := reader{b: payload}
	touched = r.i32Slice(touched)
	counts = r.i32Slice(counts)
	return touched, counts, r.done()
}

// appendRoundReply encodes a round reply: the accepted servers, the
// newly burned ones and the saturation count.
func appendRoundReply(b []byte, accepted, newlyBurned []int32, saturated int) []byte {
	b = appendI32Slice(appendI32Slice(b, accepted), newlyBurned)
	return appendU32(b, uint32(saturated))
}

// decodeRoundReply decodes a round reply, appending to accepted and
// newlyBurned.
func decodeRoundReply(payload []byte, accepted, newlyBurned []int32) ([]int32, []int32, int, error) {
	r := reader{b: payload}
	accepted = r.i32Slice(accepted)
	newlyBurned = r.i32Slice(newlyBurned)
	saturated := int(r.u32())
	return accepted, newlyBurned, saturated, r.done()
}

// appendCounted encodes a counted round request: one shard window's
// counts, one byte per server, and its wrap entries, ascending window
// cells.
func appendCounted(b []byte, counts []uint8, wraps []int32) []byte {
	b = slices.Grow(b, 4+len(counts))
	b = appendU32(b, uint32(len(counts)))
	return appendI32Slice(append(b, counts...), wraps)
}

// decodeCounted decodes a counted round request. The counts alias the
// payload, so they are valid until the next read; the wrap entries are
// appended to wraps.
func decodeCounted(payload []byte, wraps []int32) (counts []uint8, _ []int32, err error) {
	r := reader{b: payload}
	counts = r.byteArray()
	wraps = r.i32Slice(wraps)
	return counts, wraps, r.done()
}

// appendCountedReply encodes a counted round reply: the window's accept
// bitmap, the newly burned servers and the saturation count.
func appendCountedReply(b []byte, accepted []uint64, newlyBurned []int32, saturated int) []byte {
	b = appendI32Slice(appendU64Slice(b, accepted), newlyBurned)
	return appendU32(b, uint32(saturated))
}

// decodeCountedReply decodes a counted round reply, appending to
// accepted and newlyBurned.
func decodeCountedReply(payload []byte, accepted []uint64, newlyBurned []int32) ([]uint64, []int32, int, error) {
	r := reader{b: payload}
	accepted = r.u64Slice(accepted)
	newlyBurned = r.i32Slice(newlyBurned)
	saturated := int(r.u32())
	return accepted, newlyBurned, saturated, r.done()
}

// decodeLoads decodes a loads reply, the window's loads as one counted
// array, appending to loads.
func decodeLoads(payload []byte, loads []int32) ([]int32, error) {
	r := reader{b: payload}
	loads = r.i32Slice(loads)
	return loads, r.done()
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

// i32Slice reads a counted int32 array, appending into dst. On a
// little-endian host the values are one copy into dst's memory.
func (r *reader) i32Slice(dst []int32) []int32 {
	src := r.arrayBytes()
	if !nativeLE {
		return appendI32sLE(dst, src)
	}
	n := len(src) / 4
	dst = slices.Grow(dst, n)
	copy(i32Bytes(dst[len(dst):len(dst)+n]), src)
	return dst[:len(dst)+n]
}

// i32SlicePortable is i32Slice one value at a time, for any host byte
// order: the big-endian path and the tests' reference.
func (r *reader) i32SlicePortable(dst []int32) []int32 {
	return appendI32sLE(dst, r.arrayBytes())
}

// u64Slice reads a counted uint64 array, appending into dst: one copy
// into dst's memory on a little-endian host, one value at a time
// elsewhere.
func (r *reader) u64Slice(dst []uint64) []uint64 {
	src := r.elems(8)
	n := len(src) / 8
	dst = slices.Grow(dst, n)
	if nativeLE {
		copy(u64Bytes(dst[len(dst):len(dst)+n]), src)
		return dst[:len(dst)+n]
	}
	for i := 0; i < n; i++ {
		dst = append(dst, binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst
}

// byteArray reads a counted byte array and returns its bytes, which
// alias the payload.
func (r *reader) byteArray() []byte { return r.elems(1) }

// arrayBytes reads a counted int32 array's count and returns the bytes
// of its values.
func (r *reader) arrayBytes() []byte { return r.elems(4) }

// elems reads a counted array's count and returns the bytes of its
// values, size bytes each. A count that the rest of the payload cannot
// hold fails the reader before anything is sized by it; the test
// divides the remaining length rather than multiplying the count, so it
// cannot overflow.
func (r *reader) elems(size int) []byte {
	k := r.u32()
	if r.err != nil {
		return nil
	}
	if uint64(k) > uint64(len(r.b)-r.off)/uint64(size) {
		r.fail()
		return nil
	}
	src := r.b[r.off : r.off+size*int(k)]
	r.off += len(src)
	return src
}

// appendI32sLE appends the little-endian int32 values in src to dst.
func appendI32sLE(dst []int32, src []byte) []int32 {
	for i := 0; i+4 <= len(src); i += 4 {
		dst = append(dst, int32(binary.LittleEndian.Uint32(src[i:])))
	}
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
