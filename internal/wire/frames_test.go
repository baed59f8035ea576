package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// pipeConn builds a frameConn whose writes land in a buffer that its
// reads drain — a loopback transport without sockets.
func pipeConn(limit int) (*frameConn, *bytes.Buffer) {
	buf := &bytes.Buffer{}
	return &frameConn{r: buf, w: buf, limit: limit}, buf
}

// rawFrame encodes one frame by hand: the golden reference the writer
// is checked against and the forge for malformed inputs.
func rawFrame(typ byte, session uint32, chunk []byte) []byte {
	out := make([]byte, 0, frameHeaderSize+len(chunk))
	out = binary.LittleEndian.AppendUint32(out, uint32(frameHeaderSize+len(chunk)))
	out = append(out, typ)
	out = binary.LittleEndian.AppendUint32(out, session)
	return append(out, chunk...)
}

func TestMessageRoundTrip(t *testing.T) {
	fc, _ := pipeConn(maxFrameSize)
	msgs := []struct {
		typ     byte
		session uint32
		payload []byte
	}{
		{msgHello, 0, []byte{1, 2, 3}},
		{msgRound, 7, bytes.Repeat([]byte{0xAB}, 1000)},
		{msgResetOK, 0xFFFFFFFF, nil}, // empty payload: a bare header frame
		{msgLoads, 3, []byte{}},
	}
	for _, m := range msgs {
		if err := fc.writeMessage(m.typ, m.session, m.payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range msgs {
		typ, session, payload, err := fc.readMessage()
		if err != nil {
			t.Fatal(err)
		}
		if typ != m.typ || session != m.session || !bytes.Equal(payload, m.payload) {
			t.Fatalf("round trip: got (%d, %d, %v), want (%d, %d, %v)",
				typ, session, payload, m.typ, m.session, m.payload)
		}
	}
}

// TestSpillGolden pins the exact byte stream of a spilled message: with
// limit 16 each frame carries at most 11 payload bytes, so 23 bytes
// spill into two continuation frames and a 1-byte final frame.
func TestSpillGolden(t *testing.T) {
	const limit = 16
	payload := make([]byte, 23)
	for i := range payload {
		payload[i] = byte(i)
	}
	fc, buf := pipeConn(limit)
	if err := fc.writeMessage(msgRound, 5, payload); err != nil {
		t.Fatal(err)
	}
	want := rawFrame(msgRound|frameCont, 5, payload[:11])
	want = append(want, rawFrame(msgRound|frameCont, 5, payload[11:22])...)
	want = append(want, rawFrame(msgRound, 5, payload[22:])...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("spilled stream:\n got %x\nwant %x", buf.Bytes(), want)
	}
	typ, session, got, err := fc.readMessage()
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgRound || session != 5 || !bytes.Equal(got, payload) {
		t.Fatalf("reassembly: got (%d, %d, %x)", typ, session, got)
	}
}

// TestSpillOneByteOver pins the boundary: a payload exactly at the
// per-frame budget rides one unflagged frame; one byte more spills into
// a full continuation frame plus a 1-byte final frame.
func TestSpillOneByteOver(t *testing.T) {
	const limit = 64
	const budget = limit - frameHeaderSize

	exact := bytes.Repeat([]byte{0xEE}, budget)
	fc, buf := pipeConn(limit)
	if err := fc.writeMessage(msgReset, 2, exact); err != nil {
		t.Fatal(err)
	}
	if want := rawFrame(msgReset, 2, exact); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exact-fit batch spilled: %x", buf.Bytes())
	}
	if _, _, got, err := fc.readMessage(); err != nil || !bytes.Equal(got, exact) {
		t.Fatalf("exact-fit read back: %x, %v", got, err)
	}

	over := bytes.Repeat([]byte{0xEE}, budget+1)
	fc, buf = pipeConn(limit)
	if err := fc.writeMessage(msgReset, 2, over); err != nil {
		t.Fatal(err)
	}
	want := rawFrame(msgReset|frameCont, 2, over[:budget])
	want = append(want, rawFrame(msgReset, 2, over[budget:])...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("one-over batch:\n got %x\nwant %x", buf.Bytes(), want)
	}
	typ, session, got, err := fc.readMessage()
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgReset || session != 2 || !bytes.Equal(got, over) {
		t.Fatalf("one-over read back: (%d, %d, %d bytes)", typ, session, len(got))
	}
}

// TestReadRejectsMalformedFrames pins the decoder guards: frames outside
// the size bounds, truncated streams, and inconsistent continuation runs
// are all rejected rather than misparsed.
func TestReadRejectsMalformedFrames(t *testing.T) {
	frame := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	sizeOnly := func(size uint32) []byte {
		return binary.LittleEndian.AppendUint32(nil, size)
	}
	cases := []struct {
		name  string
		limit int
		raw   []byte
	}{
		{"size zero", 64, frame(sizeOnly(0), []byte{msgHello}, sizeOnly(0))},
		{"size below header", 64, frame(sizeOnly(4), []byte{msgHello}, sizeOnly(0))},
		{"size above limit", 64, rawFrame(msgHello, 0, bytes.Repeat([]byte{1}, 60))},
		{"truncated header", 64, sizeOnly(10)},
		{"truncated payload", 64, rawFrame(msgHello, 0, []byte{1, 2, 3})[:10]},
		{"dangling continuation", 64, rawFrame(msgRound|frameCont, 1, []byte{1, 2})},
		{"continuation type flip", 64, frame(
			rawFrame(msgRound|frameCont, 1, []byte{1}),
			rawFrame(msgLoads, 1, []byte{2}))},
		{"continuation session flip", 64, frame(
			rawFrame(msgRound|frameCont, 1, []byte{1}),
			rawFrame(msgRound, 2, []byte{2}))},
	}
	for _, tc := range cases {
		fc := &frameConn{r: bytes.NewReader(tc.raw), w: io.Discard, limit: tc.limit}
		if _, _, _, err := fc.readMessage(); err == nil {
			t.Errorf("%s: decoder accepted the stream", tc.name)
		}
	}
}

// TestServerErrorFrame pins the error channel: an Error message read by
// the client surfaces as a *serverError carrying the server's text.
func TestServerErrorFrame(t *testing.T) {
	fc, _ := pipeConn(maxFrameSize)
	if err := fc.writeMessage(msgError, 9, []byte("shard exploded")); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := fc.readMessage()
	var se *serverError
	if !errors.As(err, &se) {
		t.Fatalf("error frame surfaced as %T: %v", err, err)
	}
	if se.Error() != "wire: server error: shard exploded" {
		t.Fatalf("error text: %q", se.Error())
	}
}

// TestReaderHelpers pins the payload cursor: truncation and trailing
// garbage are both errors, and i32Slice round-trips through the bulk
// encoder.
func TestReaderHelpers(t *testing.T) {
	vals := []int32{0, -1, 1 << 30, -(1 << 30), 42}
	var out []byte
	out = appendU32(out, 0xCAFE)
	out = appendU64(out, 1<<40)
	out = append(out, 7)
	out = appendI32Slice(out, vals)

	r := reader{b: out}
	if got := r.u32(); got != 0xCAFE {
		t.Fatalf("u32: %#x", got)
	}
	if got := r.u64(); got != 1<<40 {
		t.Fatalf("u64: %#x", got)
	}
	if got := r.u8(); got != 7 {
		t.Fatalf("u8: %d", got)
	}
	got := r.i32Slice(nil)
	if len(got) != len(vals) {
		t.Fatalf("i32Slice: %v", got)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("i32Slice[%d]: %d != %d", i, got[i], vals[i])
		}
	}
	if err := r.done(); err != nil {
		t.Fatal(err)
	}

	// Trailing garbage is an error.
	r = reader{b: append(append([]byte(nil), out...), 0xFF)}
	r.u32()
	r.u64()
	r.u8()
	r.i32Slice(nil)
	if err := r.done(); err == nil {
		t.Fatal("reader accepted trailing bytes")
	}

	// Truncation is an error, not a zero value that parses onward.
	r = reader{b: out[:5]}
	r.u32()
	r.u64()
	if err := r.done(); err == nil {
		t.Fatal("reader accepted a truncated payload")
	}
}

// TestI32SliceGolden pins appendI32Slice's bytes against an encoding
// built by hand: the count, then each value as a little-endian uint32.
// The round path's arrays all go through it, so this is the byte layout
// of every request, reply and load vector.
func TestI32SliceGolden(t *testing.T) {
	vals := []int32{0, -1, 1, 1 << 30, math.MinInt32, math.MaxInt32}
	want := binary.LittleEndian.AppendUint32([]byte{0xAA}, uint32(len(vals)))
	for _, v := range vals {
		want = binary.LittleEndian.AppendUint32(want, uint32(v))
	}
	for _, enc := range i32Encoders {
		if got := enc.append([]byte{0xAA}, vals); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %x\nwant %x", enc.name, got, want)
		}
	}
}

// i32Encoders and i32Decoders are the two paths of each array helper:
// native, the one a host dispatches to (one copy on a little-endian
// host), and portable, one value at a time.
var (
	i32Encoders = []struct {
		name   string
		append func([]byte, []int32) []byte
	}{{"native", appendI32Slice}, {"portable", appendI32SlicePortable}}
	i32Decoders = []struct {
		name string
		read func(*reader, []int32) []int32
	}{{"native", (*reader).i32Slice}, {"portable", (*reader).i32SlicePortable}}
)

// TestI32SliceRoundTrip is the paired encode/decode property for int32
// arrays: on every combination of encoder and decoder path, encode →
// decode → encode gives identical bytes and the original values, after
// a byte prefix on encode and into a non-empty buffer on decode.
func TestI32SliceRoundTrip(t *testing.T) {
	src := rng.New(23)
	for _, n := range []int{0, 1, 7, 8, 4099} {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(src.Uint64())
		}
		if n > 2 {
			vals[0], vals[n-1] = math.MinInt32, math.MaxInt32
		}
		prefix := []byte{1, 2, 3}
		for _, enc := range i32Encoders {
			wire := enc.append(slices.Clone(prefix), vals)
			if !bytes.Equal(wire, appendI32Slice(slices.Clone(prefix), vals)) {
				t.Fatalf("n=%d: %s encoding differs from native", n, enc.name)
			}
			for _, dec := range i32Decoders {
				r := reader{b: wire[len(prefix):]}
				got := dec.read(&r, []int32{-7})
				if err := r.done(); err != nil {
					t.Fatalf("n=%d %s→%s: %v", n, enc.name, dec.name, err)
				}
				if got[0] != -7 || !slices.Equal(got[1:], vals) {
					t.Fatalf("n=%d %s→%s: decoded values differ", n, enc.name, dec.name)
				}
				for _, again := range i32Encoders {
					if re := again.append(slices.Clone(prefix), got[1:]); !bytes.Equal(re, wire) {
						t.Fatalf("n=%d %s→%s→%s: re-encoding differs", n, enc.name, dec.name, again.name)
					}
				}
			}
		}
	}
}

// FuzzReadMessage feeds arbitrary bytes to the frame reader at a small
// frame limit, so spills and the size checks run, and hands every
// message it reassembles to each payload decoder either side applies.
// No input may panic; no decoded array may be longer than the bytes
// after its count could hold; the two array decoder paths must agree;
// and a payload a decoder accepts must encode back to the same bytes.
//
// The seed corpus (testdata/fuzz/FuzzReadMessage) holds the messages of
// TestMessageRoundTrip written at this limit, TestSpillGolden's stream,
// a Hello, a valid round batch and its reply, a truncated batch, a
// batch whose first count is 0xFFFFFFFF, a valid counted round and its
// reply, a counted round whose byte vector is cut short, and counted
// frames whose wrap count or bitmap word count runs past the payload.
func FuzzReadMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		fc := &frameConn{r: bytes.NewReader(stream), w: io.Discard, limit: 64}
		for {
			_, _, payload, err := fc.readMessage()
			if err != nil {
				return
			}
			checkPayloadDecoders(t, payload)
		}
	})
}

func checkPayloadDecoders(t *testing.T, p []byte) {
	rn, rp := reader{b: p}, reader{b: p}
	vn, vp := rn.i32Slice(nil), rp.i32SlicePortable(nil)
	if !slices.Equal(vn, vp) || rn.off != rp.off || (rn.err == nil) != (rp.err == nil) {
		t.Fatalf("array decoders disagree: native %d values at %d (%v), portable %d at %d (%v)",
			len(vn), rn.off, rn.err, len(vp), rp.off, rp.err)
	}

	touched, counts, err := decodeRound(p, nil, nil)
	checkFits(t, "round", p, touched, counts)
	if err == nil && !bytes.Equal(appendRound(nil, touched, counts), p) {
		t.Fatalf("round batch does not re-encode to %x", p)
	}
	acc, nb, sat, err := decodeRoundReply(p, nil, nil)
	checkFits(t, "round reply", p, acc, nb)
	if err == nil && !bytes.Equal(appendRoundReply(nil, acc, nb, sat), p) {
		t.Fatalf("round reply does not re-encode to %x", p)
	}
	cbytes, wraps, err := decodeCounted(p, nil)
	checkFitsBytes(t, "counted", p, cbytes, wraps)
	if err == nil && !bytes.Equal(appendCounted(nil, cbytes, wraps), p) {
		t.Fatalf("counted round does not re-encode to %x", p)
	}
	words, cnb, csat, err := decodeCountedReply(p, nil, nil)
	if len(words) > 0 && 4+8*len(words) > len(p) {
		t.Fatalf("counted reply: %d bitmap words decoded from a %d-byte payload", len(words), len(p))
	}
	if err == nil && !bytes.Equal(appendCountedReply(nil, words, cnb, csat), p) {
		t.Fatalf("counted reply does not re-encode to %x", p)
	}
	loads, err := decodeLoads(p, nil)
	checkFits(t, "loads", p, loads)
	if err == nil && !bytes.Equal(appendI32Slice(nil, loads), p) {
		t.Fatalf("loads reply does not re-encode to %x", p)
	}
	if len(p) > 0 {
		loads, err = decodeReset(p, nil)
		checkFits(t, "reset", p[1:], loads)
		want := p[:1]
		if p[0] != 0 {
			want = appendI32Slice(slices.Clone(want), loads)
		}
		if err == nil && !bytes.Equal(want, p) {
			t.Fatalf("reset does not re-encode to %x", p)
		}
	}
	if h, err := decodeHello(p); err == nil && !bytes.Equal(appendHello(nil, h), p) {
		t.Fatalf("hello does not re-encode to %x", p)
	}
}

// checkFitsBytes fails t unless the byte array and then the int32
// array, decoded one after another from the start of p, each fit in the
// bytes that follow its count.
func checkFitsBytes(t *testing.T, what string, p []byte, b []byte, a []int32) {
	if len(b) > 0 && 4+len(b) > len(p) {
		t.Fatalf("%s: %d bytes decoded from a %d-byte payload", what, len(b), len(p))
	}
	checkFits(t, what, p[min(4+len(b), len(p)):], a)
}

// checkFits fails t unless each of the arrays, decoded one after another
// from the start of p, fits in the bytes that follow its count.
func checkFits(t *testing.T, what string, p []byte, arrays ...[]int32) {
	off := 0
	for i, a := range arrays {
		off += 4 + 4*len(a)
		if len(a) > 0 && off > len(p) {
			t.Fatalf("%s: array %d decoded %d values from a %d-byte payload", what, i, len(a), len(p))
		}
	}
}

// round1Batch returns one shard's round-1 batch of the wire-loopback
// shape (n = 2¹⁶, d = 2, two shards): k ascending servers of a
// 32,768-server window with counts in [1, 3].
func round1Batch(k int) (touched, counts []int32) {
	src := rng.New(1)
	for _, u := range src.Sample(1<<15, k) {
		touched = append(touched, int32(u))
	}
	slices.Sort(touched)
	for range touched {
		counts = append(counts, int32(1+src.Intn(3)))
	}
	return touched, counts
}

// BenchmarkFrameCodec measures the frame layer on one shard's round-1
// request, 2 × 28,000 int32, in ns per int32:
//
//   - codec/native encodes the request and decodes it on the path the
//     host dispatches to (one copy per array on a little-endian host);
//   - codec/portable does the same one value at a time;
//   - counted/request and counted/reply encode and decode the same
//     shard's counted round at wire-loopback's window, 32,768 counts,
//     and its reply, 512 bitmap words and 40 newly burned servers, in
//     ns per window server;
//   - message/default and message/spill write the encoded request with
//     writeMessage and read it back with readMessage over a pipeConn, at
//     the default frame limit and at 64 KiB, where it spills into four
//     frames.
func BenchmarkFrameCodec(b *testing.B) {
	touched, counts := round1Batch(28000)
	perOp := float64(len(touched) + len(counts))
	for _, path := range []struct {
		name string
		enc  func([]byte, []int32) []byte
		dec  func(*reader, []int32) []int32
	}{{"native", appendI32Slice, (*reader).i32Slice}, {"portable", appendI32SlicePortable, (*reader).i32SlicePortable}} {
		b.Run("codec/"+path.name, func(b *testing.B) {
			var buf []byte
			var t2, c2 []int32
			for i := 0; i < b.N; i++ {
				buf = path.enc(path.enc(buf[:0], touched), counts)
				r := reader{b: buf}
				t2, c2 = path.dec(&r, t2[:0]), path.dec(&r, c2[:0])
				if err := r.done(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perOp), "ns/int32")
		})
	}
	// The counted round of the same shard: the window's 32,768 counts,
	// no wrap entries, and the reply's 512 bitmap words with the
	// round's few newly burned servers; ns per window server.
	window := make([]uint8, 1<<15)
	for i, u := range touched {
		window[u] = uint8(counts[i])
	}
	words := make([]uint64, len(window)/64)
	for _, u := range touched {
		words[u>>6] |= 1 << (u & 63)
	}
	burned := touched[:40]
	b.Run("counted/request", func(b *testing.B) {
		var buf []byte
		var wraps []int32
		for i := 0; i < b.N; i++ {
			buf = appendCounted(buf[:0], window, nil)
			got, w, err := decodeCounted(buf, wraps[:0])
			if err != nil || len(got) != len(window) {
				b.Fatal(err)
			}
			wraps = w
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(window))), "ns/server")
	})
	b.Run("counted/reply", func(b *testing.B) {
		var buf []byte
		var w2 []uint64
		var nb []int32
		for i := 0; i < b.N; i++ {
			buf = appendCountedReply(buf[:0], words, burned, len(burned))
			var err error
			if w2, nb, _, err = decodeCountedReply(buf, w2[:0], nb[:0]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(window))), "ns/server")
	})
	payload := appendRound(nil, touched, counts)
	for _, lim := range []struct {
		name  string
		limit int
	}{{"default", maxFrameSize}, {"spill", 1 << 16}} {
		b.Run("message/"+lim.name, func(b *testing.B) {
			fc, _ := pipeConn(lim.limit)
			for i := 0; i < b.N; i++ {
				if err := fc.writeMessage(msgRound, 0, payload); err != nil {
					b.Fatal(err)
				}
				if _, _, got, err := fc.readMessage(); err != nil || len(got) != len(payload) {
					b.Fatalf("read back %d bytes: %v", len(got), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perOp), "ns/int32")
		})
	}
}
