package wire

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The pipelined client connection. One shardConn carries every session's
// traffic to one shard server; up to Pipeline request frames ride the
// socket at once, and a persistent reader goroutine matches replies to
// callers. Two properties make the matching trivial:
//
//   - The server processes a connection's messages strictly in order and
//     replies before reading the next, so replies arrive in request
//     order: a FIFO of pending calls is the whole correlation state.
//
//   - Requests are registered on the FIFO *before* their bytes are
//     written (inside the write lock, so FIFO order is write order) —
//     a reply can race ahead of the writer's return for large spilled
//     payloads that the kernel forwards mid-write.
//
// The lock split matters: wmu serializes dialing and frame writes, pmu
// guards only the FIFO. The reader never takes wmu, so a writer blocked
// on TCP backpressure (a huge spilled batch against a full send buffer)
// cannot stop replies from draining — which is exactly what unblocks the
// server, and therefore the writer.

// pendingCall is one in-flight request: the reply type and session it
// expects, the parse hook that decodes the reply payload (run on the
// reader goroutine; the caller is still blocked on done, so the hook may
// write caller-owned buffers), and the completion channel. Every call is
// completed exactly once: by the reader popping it, by liveConn.fail
// flushing the FIFO, or by begin when it failed before registration. So
// once wait has returned, nothing refers to the call any more, and its
// owner may begin it again: each session keeps one per shard.
type pendingCall struct {
	want    byte
	session uint32
	parse   func(payload []byte) error
	done    chan error

	// rtt, when non-nil, receives the call's round trip in wait; start is
	// stamped at the top of begin, so the observation includes pipeline
	// queueing, the write, the server's work and the read back.
	rtt   *telemetry.Histogram
	start time.Time
}

func newPendingCall() *pendingCall {
	return &pendingCall{done: make(chan error, 1)}
}

// liveConn is one established connection epoch: the socket, its frame
// transport, and the FIFO of in-flight calls. A transport error marks
// the epoch dead and fails every pending call; the shardConn then
// replaces the epoch wholesale on the next ensure, so a reader of a dead
// epoch can never corrupt its successor's state.
type liveConn struct {
	conn net.Conn
	bw   *bufio.Writer
	fc   *frameConn

	pmu     sync.Mutex
	pending []*pendingCall
	dead    bool
	err     error
}

// fail marks the epoch dead with err (first error wins) and completes
// every pending call. Safe to call from the reader and a writer
// concurrently: each call is removed from the FIFO under pmu by exactly
// one goroutine.
func (lc *liveConn) fail(err error) {
	lc.pmu.Lock()
	if !lc.dead {
		lc.dead = true
		lc.err = err
	}
	err = lc.err
	pending := lc.pending
	lc.pending = nil
	lc.pmu.Unlock()
	lc.conn.Close()
	for _, pc := range pending {
		pc.done <- err
	}
}

func (lc *liveConn) isDead() bool {
	lc.pmu.Lock()
	defer lc.pmu.Unlock()
	return lc.dead
}

// readLoop is the epoch's reader goroutine: it reassembles reply
// messages, pops the FIFO head, and completes it. It owns the
// frameConn's read half for the epoch's lifetime and exits on the first
// transport or correlation error.
func (lc *liveConn) readLoop() {
	for {
		typ, sid, payload, err := lc.fc.readMessage()
		if err != nil {
			lc.fail(err)
			return
		}
		lc.pmu.Lock()
		var pc *pendingCall
		if len(lc.pending) > 0 {
			// Shift the FIFO down rather than slicing its head off, so
			// its backing array (at most Pipeline calls) is reused.
			pc = lc.pending[0]
			k := copy(lc.pending, lc.pending[1:])
			lc.pending[k] = nil
			lc.pending = lc.pending[:k]
		}
		lc.pmu.Unlock()
		if pc == nil {
			lc.fail(fmt.Errorf("wire: unsolicited reply type %d (session %d)", typ, sid))
			return
		}
		if typ != pc.want || sid != pc.session {
			err := fmt.Errorf("wire: expected reply (type %d, session %d), got (type %d, session %d)",
				pc.want, pc.session, typ, sid)
			pc.done <- err
			lc.fail(err)
			return
		}
		var perr error
		if pc.parse != nil {
			// The payload aliases the frameConn's read buffer; the hook
			// must copy what it keeps before this loop reads again. All
			// hooks decode into caller-owned buffers, so they do.
			perr = pc.parse(payload)
		}
		pc.done <- perr
	}
}

// shardConn is the client half of one shard's connection, shared by
// every session of the Bank. The slots channel is the pipeline-depth
// semaphore: at most cap(slots) calls are in flight at once, across all
// sessions.
type shardConn struct {
	bank   *Bank
	addr   string
	lo, hi int32

	slots chan struct{}

	// tel, when non-nil, is this shard's telemetry bundle (DialConfig
	// builds it from BankConfig.Telemetry before any dial).
	tel *shardTel

	wmu sync.Mutex // serializes dialing and frame writes; never taken by the reader
	lc  *liveConn
	// dialed records that at least one dial attempt happened (wmu held),
	// so later attempts count as redials.
	dialed bool
}

// ensureLocked (wmu held) makes sure a live epoch exists, dialing with
// bounded, jittered backoff on transient errors: a server killed and
// restarted by a failure wave takes a moment to come back, and the churn
// scenarios expect the client to ride that out rather than fail on the
// first refused connection. A semantic rejection (server error frame in
// the handshake) is permanent and fails immediately.
func (sc *shardConn) ensureLocked() error {
	if sc.lc != nil {
		if !sc.lc.isDead() {
			return nil
		}
		sc.lc.conn.Close()
		sc.lc = nil
	}
	cfg := &sc.bank.cfg
	var lastErr error
	for attempt := 0; attempt < cfg.RedialAttempts; attempt++ {
		if attempt > 0 {
			// Exponential base with full jitter: sleep in [base, 2·base).
			base := cfg.RedialBackoff << (attempt - 1)
			time.Sleep(base + time.Duration(rand.Int64N(int64(base))))
		}
		if sc.dialed && sc.tel != nil {
			sc.tel.redials.Inc(0)
		}
		sc.dialed = true
		lc, err := sc.dialOnce()
		if err == nil {
			sc.lc = lc
			return nil
		}
		lastErr = err
		var se *serverError
		if errors.As(err, &se) {
			break
		}
	}
	return fmt.Errorf("wire: shard [%d,%d) at %s: %w", sc.lo, sc.hi, sc.addr, lastErr)
}

// dialOnce dials the shard and handshakes every session of the Bank over
// the fresh connection (one Hello per session id, replies read back in
// order), then starts the epoch's reader goroutine.
func (sc *shardConn) dialOnce() (*liveConn, error) {
	conn, err := net.Dial("tcp", sc.addr)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(conn, 1<<16)
	fc := &frameConn{r: bufio.NewReaderSize(conn, 1<<16), w: bw, limit: sc.bank.cfg.FrameLimit}
	if sc.tel != nil {
		fc.tx, fc.rx, fc.spills = sc.tel.tx, sc.tel.rx, sc.tel.spills
	}
	b := sc.bank
	h := appendHello(nil, hello{
		magic: helloMagic, version: protoVersion, variant: byte(b.variant),
		capacity: b.capacity, lo: sc.lo, hi: sc.hi,
	})
	for s := 0; s < b.cfg.Sessions; s++ {
		if err := fc.writeMessage(msgHello, uint32(s), h); err != nil {
			conn.Close()
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	for s := 0; s < b.cfg.Sessions; s++ {
		sid, payload, err := fc.expectMessage(msgHelloOK)
		if err != nil {
			conn.Close()
			return nil, err
		}
		if sid != uint32(s) || len(payload) != 0 {
			conn.Close()
			return nil, fmt.Errorf("wire: hello reply for session %d answering session %d", sid, s)
		}
	}
	lc := &liveConn{conn: conn, bw: bw, fc: fc}
	go lc.readLoop()
	return lc, nil
}

// begin starts one pipelined call on pc, which must not be in flight:
// it acquires a pipeline slot, ensures a live epoch (redialing if the
// last one died), registers the call on the FIFO, and writes the
// request — spilled across continuation frames if oversized. All
// failures surface through wait; begin itself never returns an error,
// so a begin-all-then-wait-all caller needs no partial cleanup. The
// payload may be reused as soon as begin returns.
func (sc *shardConn) begin(pc *pendingCall, session uint32, reqType byte, payload []byte, replyType byte, parse func([]byte) error) {
	pc.want, pc.session, pc.parse, pc.rtt = replyType, session, parse, nil
	if sc.tel != nil {
		pc.rtt = sc.tel.rtt
		pc.start = time.Now()
	}
	sc.slots <- struct{}{}
	sc.wmu.Lock()
	if err := sc.ensureLocked(); err != nil {
		sc.wmu.Unlock()
		pc.done <- err
		return
	}
	lc := sc.lc
	lc.pmu.Lock()
	if lc.dead {
		err := lc.err
		lc.pmu.Unlock()
		sc.wmu.Unlock()
		pc.done <- err
		return
	}
	lc.pending = append(lc.pending, pc)
	lc.pmu.Unlock()
	err := lc.fc.writeMessage(reqType, session, payload)
	if err == nil {
		err = lc.bw.Flush()
	}
	sc.wmu.Unlock()
	if err != nil {
		// pc is on the FIFO; fail completes it (exactly once) along with
		// every other in-flight call of the dead epoch.
		lc.fail(err)
	}
}

// wait blocks for the call's reply (or failure) and releases its
// pipeline slot.
func (sc *shardConn) wait(pc *pendingCall) error {
	err := <-pc.done
	if pc.rtt != nil && err == nil {
		pc.rtt.Observe(time.Since(pc.start))
	}
	<-sc.slots
	return err
}

// call is the synchronous round trip: begin one request, wait for its
// reply.
func (sc *shardConn) call(session uint32, reqType byte, payload []byte, replyType byte, parse func([]byte) error) error {
	pc := newPendingCall()
	sc.begin(pc, session, reqType, payload, replyType, parse)
	return sc.wait(pc)
}

// close tears the connection down; in-flight calls fail, future calls
// would redial.
func (sc *shardConn) close() {
	sc.wmu.Lock()
	if sc.lc != nil {
		sc.lc.conn.Close()
		sc.lc = nil
	}
	sc.wmu.Unlock()
}
