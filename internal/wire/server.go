package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Server is one server-shard listener: it owns no protocol configuration
// of its own — each session's Hello carries the variant, capacity and
// server window, and the session's state is a fresh core.ServerShard. A
// server process is therefore stateless across sessions (the per-run
// state is rebuilt by the client's Reset), which is what makes a killed
// and restarted shard indistinguishable from one that stayed up: the
// failure-wave scenarios rely on it. Only the service tally (Report)
// survives a session.
//
// One connection may carry several multiplexed sessions: every frame
// names its session id, each id gets its own ServerShard on Hello, and
// messages are processed strictly in connection order with the reply
// written before the next read — the ordering the client's pipelined
// FIFO reply matching depends on.
type Server struct {
	ln net.Listener

	// tel, when non-nil, is the shard's telemetry bundle. Write-once via
	// SetTelemetry before Serve starts accepting (StartSetTelemetry does
	// this between Listen and Serve), so connection goroutines read it
	// without locking.
	tel *serverTel

	mu     sync.Mutex
	report Report
	conns  map[net.Conn]struct{}
	limit  int

	wg     sync.WaitGroup
	closed chan struct{}
}

// Listen opens a shard listener on addr ("127.0.0.1:0" picks a free
// port; read it back with Addr). Serve must be called to accept.
func Listen(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Server{
		ln:     ln,
		conns:  make(map[net.Conn]struct{}),
		limit:  maxFrameSize,
		closed: make(chan struct{}),
	}, nil
}

// Addr returns the listener's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetTelemetry attaches per-shard server instruments from reg (nil
// detaches): open connection/session gauges, round and request
// counters, the decide-latency histogram and the transport byte/spill
// counters (saer_server_* series, labeled with shard when shard >= 0).
// Call it before Serve; connections accepted earlier keep the bundle
// they started with.
func (s *Server) SetTelemetry(reg *telemetry.Registry, shard int) {
	s.tel = newServerTel(reg, shard)
}

// SetFrameLimit lowers the per-frame size cap for connections accepted
// after the call — a test knob for exercising oversized-batch spilling
// without gigabyte payloads. Production servers keep the default
// maxFrameSize.
func (s *Server) SetFrameLimit(limit int) {
	s.mu.Lock()
	s.limit = limit
	s.mu.Unlock()
}

func (s *Server) frameLimit() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limit
}

// Serve accepts and serves connections until Close. Each connection is
// served on its own goroutine with its own session states, so a new
// client can dial while an old connection drains.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		if s.tel != nil {
			s.tel.openConns.Add(1)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
				if s.tel != nil {
					s.tel.openConns.Add(-1)
				}
			}()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight connections to finish.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	err := s.ln.Close()
	// A closed server is a killed process: in-flight connections die with
	// it rather than draining (the failure-wave model the restart tests
	// and the churn executor's redial rely on).
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Report returns the server's cumulative service tally.
func (s *Server) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// connSession is one (connection, session id)'s state: the shard the
// session's Hello configured plus scratch buffers reused across rounds.
type connSession struct {
	shard *core.ServerShard

	touched  []int32 // decode scratch: the round's servers, or a counted round's wrap entries
	counts   []int32 // decode scratch: the round's counts
	loads    []int32 // decode scratch: reset initial loads
	accepted []int32 // decision scratch
	burned   []int32 // decision scratch
	// acceptBits is a counted round's window accept bitmap, allocated by
	// the session's first counted round.
	acceptBits []uint64
}

// connState is one connection's state: the buffered frame transport and
// the session map the Hellos populate.
type connState struct {
	fc       *frameConn
	bw       *bufio.Writer
	sessions map[uint32]*connSession
	sid      uint32 // session of the message being processed (error tagging)
	out      []byte // encode scratch
}

// serveConn runs one connection to close. Protocol errors are reported
// to the client as an error frame (tagged with the offending session)
// before disconnecting.
func (s *Server) serveConn(conn net.Conn) {
	bw := bufio.NewWriterSize(conn, 1<<16)
	st := &connState{
		fc:       &frameConn{r: bufio.NewReaderSize(conn, 1<<16), w: bw, limit: s.frameLimit()},
		bw:       bw,
		sessions: make(map[uint32]*connSession),
	}
	if s.tel != nil {
		st.fc.tx, st.fc.rx, st.fc.spills = s.tel.tx, s.tel.rx, s.tel.spills
	}
	if err := s.runConn(st); err != nil && !errors.Is(err, net.ErrClosed) {
		// Best effort: the connection may already be gone.
		st.fc.writeMessage(msgError, st.sid, []byte(err.Error()))
		bw.Flush()
	}
	if s.tel != nil && len(st.sessions) > 0 {
		s.tel.openSessions.Add(-int64(len(st.sessions)))
	}
}

func (s *Server) runConn(st *connState) error {
	for {
		typ, sid, payload, err := st.fc.readMessage()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				// Clean client disconnect between messages.
				return nil
			}
			return err
		}
		st.sid = sid
		if typ == msgHello {
			if err := s.handleHello(st, sid, payload); err != nil {
				return err
			}
		} else {
			ses := st.sessions[sid]
			if ses == nil {
				return fmt.Errorf("wire: message type %d for session %d before its hello", typ, sid)
			}
			switch typ {
			case msgReset:
				err = s.handleReset(st, ses, payload)
			case msgRound:
				err = s.handleRound(st, ses, payload)
			case msgCounted:
				err = s.handleCounted(st, ses, payload)
			case msgLoads:
				err = s.handleLoads(st, ses, payload)
			case msgReport:
				err = s.handleReport(st, payload)
			default:
				err = fmt.Errorf("wire: unexpected message type %d", typ)
			}
			if err != nil {
				return err
			}
		}
		if err := st.bw.Flush(); err != nil {
			return err
		}
	}
}

// handleHello validates a session's Hello and builds its shard.
func (s *Server) handleHello(st *connState, sid uint32, payload []byte) error {
	h, err := decodeHello(payload)
	if err != nil {
		return err
	}
	if h.magic != helloMagic {
		return fmt.Errorf("wire: bad hello magic %#x", h.magic)
	}
	if h.version != protoVersion {
		return fmt.Errorf("wire: protocol version %d, this server speaks %d", h.version, protoVersion)
	}
	if st.sessions[sid] != nil {
		return fmt.Errorf("wire: duplicate hello for session %d", sid)
	}
	shard, err := core.NewServerShard(core.Variant(h.variant), h.capacity, int(h.lo), int(h.hi))
	if err != nil {
		return err
	}
	st.sessions[sid] = &connSession{shard: shard}
	s.mu.Lock()
	s.report.Sessions++
	s.mu.Unlock()
	if s.tel != nil {
		s.tel.openSessions.Add(1)
	}
	return st.fc.writeMessage(msgHelloOK, sid, nil)
}

func (ses *connSession) window() int {
	lo, hi := ses.shard.Window()
	return hi - lo
}

func (s *Server) handleReset(st *connState, ses *connSession, payload []byte) error {
	loads, err := decodeReset(payload, ses.loads[:0])
	if err != nil {
		return err
	}
	if loads != nil {
		ses.loads = loads
		if len(loads) != ses.window() {
			return fmt.Errorf("wire: reset with %d loads for a %d-server window", len(loads), ses.window())
		}
	}
	if err := ses.shard.Reset(loads); err != nil {
		return err
	}
	return st.fc.writeMessage(msgResetOK, st.sid, nil)
}

func (s *Server) handleRound(st *connState, ses *connSession, payload []byte) error {
	var err error
	ses.touched, ses.counts, err = decodeRound(payload, ses.touched[:0], ses.counts[:0])
	if err != nil {
		return err
	}
	start := time.Now()
	acc, nb, sat, err := ses.shard.Decide(ses.touched, ses.counts, ses.accepted[:0], ses.burned[:0])
	if err != nil {
		return err
	}
	ses.accepted, ses.burned = acc, nb
	var received uint64
	for _, c := range ses.counts {
		received += uint64(c)
	}
	// Accepted requests = the counts of the accepted servers; acc is
	// sorted and a subsequence of touched, so one merge pass resolves it.
	var acceptedReqs uint64
	j := 0
	for i, u := range ses.touched {
		if j < len(acc) && acc[j] == u {
			acceptedReqs += uint64(ses.counts[i])
			j++
		}
	}
	s.countRound(received, acceptedReqs, time.Since(start))
	st.out = appendRoundReply(st.out[:0], acc, nb, sat)
	return st.fc.writeMessage(msgRoundReply, st.sid, st.out)
}

// handleCounted decides a counted round: the window's counts, one byte
// per server, and its wrap entries, checked whole by the shard before
// any server changes. It counts in the Report exactly as the round's
// pairs would.
func (s *Server) handleCounted(st *connState, ses *connSession, payload []byte) error {
	counts, wraps, err := decodeCounted(payload, ses.touched[:0])
	if err != nil {
		return err
	}
	ses.touched = wraps
	if ses.acceptBits == nil {
		ses.acceptBits = make([]uint64, ses.shard.WindowWords())
	}
	start := time.Now()
	nb, sat, acceptedReqs, err := ses.shard.DecideCounted(counts, wraps, ses.acceptBits, ses.burned[:0])
	if err != nil {
		return err
	}
	ses.burned = nb
	s.countRound(uint64(core.CountedRequests(counts, wraps, nil)), uint64(acceptedReqs), time.Since(start))
	st.out = appendCountedReply(st.out[:0], ses.acceptBits, nb, sat)
	return st.fc.writeMessage(msgCountedReply, st.sid, st.out)
}

// countRound adds one decided round to the Report and the telemetry:
// the requests it received and accepted and the time its decide took.
func (s *Server) countRound(received, acceptedReqs uint64, elapsed time.Duration) {
	s.mu.Lock()
	s.report.Rounds++
	s.report.Requests += received
	s.report.Accepted += acceptedReqs
	s.report.DecideNanos += uint64(elapsed.Nanoseconds())
	s.mu.Unlock()
	if s.tel != nil {
		s.tel.rounds.Inc(0)
		s.tel.requests.Add(0, int64(received))
		s.tel.decide.Observe(elapsed)
	}
}

func (s *Server) handleLoads(st *connState, ses *connSession, payload []byte) error {
	if len(payload) != 0 {
		return fmt.Errorf("wire: loads request carries a payload")
	}
	st.out = appendI32Slice(st.out[:0], ses.shard.Loads())
	return st.fc.writeMessage(msgLoadsReply, st.sid, st.out)
}

func (s *Server) handleReport(st *connState, payload []byte) error {
	if len(payload) != 0 {
		return fmt.Errorf("wire: report request carries a payload")
	}
	rep := s.Report()
	st.out = st.out[:0]
	st.out = appendU64(st.out, rep.Sessions)
	st.out = appendU64(st.out, rep.Rounds)
	st.out = appendU64(st.out, rep.Requests)
	st.out = appendU64(st.out, rep.Accepted)
	st.out = appendU64(st.out, rep.DecideNanos)
	return st.fc.writeMessage(msgReportOK, st.sid, st.out)
}

// ServerSet runs one goroutine-isolated Server per shard inside this
// process: the single-binary deployment shape (cmd/saer-server with k
// listen addresses) and the harness for the loopback tests and the CI
// service smoke.
type ServerSet struct {
	servers []*Server
	errs    []error
	wg      sync.WaitGroup
}

// StartSet listens on every addr and serves each on its own goroutine.
func StartSet(addrs []string) (*ServerSet, error) {
	return StartSetTelemetry(addrs, nil)
}

// StartSetTelemetry is StartSet with per-shard server instruments
// registered on reg (nil behaves like StartSet). The bundle is attached
// between Listen and Serve, so every accepted connection is counted.
func StartSetTelemetry(addrs []string, reg *telemetry.Registry) (*ServerSet, error) {
	ss := &ServerSet{errs: make([]error, len(addrs))}
	for i, addr := range addrs {
		srv, err := Listen(addr)
		if err != nil {
			ss.Close()
			return nil, err
		}
		srv.SetTelemetry(reg, i)
		ss.servers = append(ss.servers, srv)
	}
	for i, srv := range ss.servers {
		ss.wg.Add(1)
		go func(i int, srv *Server) {
			defer ss.wg.Done()
			ss.errs[i] = srv.Serve()
		}(i, srv)
	}
	return ss, nil
}

// StartLocalSet starts k shard servers on loopback ports picked by the
// kernel.
func StartLocalSet(k int) (*ServerSet, error) {
	addrs := make([]string, k)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return StartSet(addrs)
}

// Addrs returns the bound addresses, one per shard in shard order.
func (ss *ServerSet) Addrs() []string {
	addrs := make([]string, len(ss.servers))
	for i, srv := range ss.servers {
		addrs[i] = srv.Addr()
	}
	return addrs
}

// Servers exposes the individual servers (the failure-wave tests kill
// and restart specific shards).
func (ss *ServerSet) Servers() []*Server { return ss.servers }

// Reports collects every server's service tally, in shard order.
func (ss *ServerSet) Reports() []Report {
	reps := make([]Report, len(ss.servers))
	for i, srv := range ss.servers {
		reps[i] = srv.Report()
	}
	return reps
}

// Close shuts every server down and waits for the serve loops.
func (ss *ServerSet) Close() error {
	var first error
	for _, srv := range ss.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	ss.wg.Wait()
	for _, err := range ss.errs {
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}
