package wire

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// BankConfig tunes the client side of the wire transport. The zero value
// selects every default, so existing Dial callers are unchanged.
type BankConfig struct {
	// Sessions is the number of concurrent protocol sessions multiplexed
	// over the Bank's connections (default 1). Each session is an
	// independent core.ServerBank — its own per-session ServerShard state
	// server-side — so S sessions run S trials concurrently over one set
	// of sockets.
	Sessions int
	// Pipeline caps the request frames in flight per shard connection,
	// across all sessions (default 8). The protocol is synchronous within
	// a session (round t+1 depends on round t's decisions), so depth
	// materializes when several sessions share a connection.
	Pipeline int
	// RedialAttempts bounds the dial attempts per reconnection (default
	// 3): a shard killed and restarted by a failure wave takes a moment
	// to come back.
	RedialAttempts int
	// RedialBackoff is the base backoff before the second attempt,
	// doubled per further attempt with full jitter (default 25ms).
	RedialBackoff time.Duration
	// FrameLimit overrides the per-frame size cap (default maxFrameSize).
	// Tests lower it to exercise frame spilling without gigabyte
	// payloads; production callers leave it zero.
	FrameLimit int
	// Telemetry, when non-nil, receives per-shard client instruments:
	// RTT histograms, tx/rx byte counters, redials and spilled frames
	// (saer_wire_* series, labeled by shard). Pure observation — the
	// protocol bytes and results are identical with or without it.
	Telemetry *telemetry.Registry
}

func (c BankConfig) withDefaults() BankConfig {
	if c.Sessions < 1 {
		c.Sessions = 1
	}
	if c.Pipeline < 1 {
		c.Pipeline = 8
	}
	if c.RedialAttempts < 1 {
		c.RedialAttempts = 3
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 25 * time.Millisecond
	}
	if c.FrameLimit <= 0 {
		c.FrameLimit = maxFrameSize
	}
	return c
}

// Bank is the wire implementation of core.ServerBank: one pipelined
// connection per remote server shard, shared by every session, each
// round shipped as one batched message per touched shard (spilled across
// continuation frames when oversized). It is what turns a core.Driver
// into the service mode's load generator — the Driver neither knows nor
// cares that its bank crosses a socket.
//
// The Bank itself implements core.ServerBank by delegating to session 0,
// so single-session callers use it directly; Session(i) hands out the
// other sessions for trial-parallel drivers. A connection that dies (a
// killed server process) is redialed — with bounded, jittered backoff —
// on the next call that needs it: combined with the per-run
// statelessness of the shard servers, a process kill between epochs is
// invisible to the scenario, which is exactly the recovery model the
// churn failure waves assume.
type Bank struct {
	variant  core.Variant
	capacity int32
	m        int
	cfg      BankConfig
	conns    []*shardConn
	sessions []*Session
}

// Dial connects one pipelined shard connection per address with default
// knobs; addrs[i] serves the i-th window of core.SplitWindows(m,
// len(addrs)).
func Dial(addrs []string, variant core.Variant, capacity int32, m int) (*Bank, error) {
	return DialConfig(addrs, variant, capacity, m, BankConfig{})
}

// DialConfig is Dial with explicit client knobs. The protocol identity
// (variant, capacity) is fixed per Bank and announced to each server in
// every session's Hello.
func DialConfig(addrs []string, variant core.Variant, capacity int32, m int, cfg BankConfig) (*Bank, error) {
	windows, err := core.SplitWindows(m, len(addrs))
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	b := &Bank{variant: variant, capacity: capacity, m: m, cfg: cfg}
	for i, addr := range addrs {
		b.conns = append(b.conns, &shardConn{
			bank:  b,
			addr:  addr,
			lo:    int32(windows[i][0]),
			hi:    int32(windows[i][1]),
			slots: make(chan struct{}, cfg.Pipeline),
			tel:   newShardTel(cfg.Telemetry, i),
		})
	}
	for s := 0; s < cfg.Sessions; s++ {
		ses := &Session{b: b, id: uint32(s), shards: make([]*sessionShard, len(addrs)), ends: make([]int, len(addrs)),
			loads: make([]int32, m), acceptBits: make([]uint64, (m+63)/64)}
		for i := range ses.shards {
			ss := &sessionShard{pc: newPendingCall()}
			ss.parseRoundFn = ss.parseRound
			ss.parseCountedFn = ss.parseCounted
			ss.parseLoadsFn = ss.parseLoads
			ses.shards[i] = ss
		}
		b.sessions = append(b.sessions, ses)
	}
	for _, sc := range b.conns {
		sc.wmu.Lock()
		err := sc.ensureLocked()
		sc.wmu.Unlock()
		if err != nil {
			b.Close()
			return nil, err
		}
	}
	return b, nil
}

// Sessions returns the number of multiplexed sessions the Bank was
// dialed with.
func (b *Bank) Sessions() int { return len(b.sessions) }

// Session returns the i-th session's core.ServerBank view. Each session
// is single-caller (one Driver), but distinct sessions run concurrently.
func (b *Bank) Session(i int) *Session { return b.sessions[i] }

// Windows returns the shard windows, in shard order.
func (b *Bank) Windows() [][2]int {
	ws := make([][2]int, len(b.conns))
	for i, sc := range b.conns {
		ws[i] = [2]int{int(sc.lo), int(sc.hi)}
	}
	return ws
}

// The Bank's own core.ServerBank face is session 0.

// Reset re-initializes session 0's shards for a new run.
func (b *Bank) Reset(initialLoads []int) error { return b.sessions[0].Reset(initialLoads) }

// DecideRound ships session 0's round.
func (b *Bank) DecideRound(touched, counts []int32) (core.RoundDecision, error) {
	return b.sessions[0].DecideRound(touched, counts)
}

// DecideCounted ships session 0's counted round.
func (b *Bank) DecideCounted(counts []uint8, wraps []int32) (core.CountedDecision, error) {
	return b.sessions[0].DecideCounted(counts, wraps)
}

// Loads gathers session 0's per-server load vector.
func (b *Bank) Loads() ([]int32, error) { return b.sessions[0].Loads() }

// Reports fetches every shard server's cumulative service tally, in
// shard order.
func (b *Bank) Reports() ([]Report, error) {
	reps := make([]Report, len(b.conns))
	for i, sc := range b.conns {
		rep := &reps[i]
		err := sc.call(0, msgReport, nil, msgReportOK, func(payload []byte) error {
			r := reader{b: payload}
			rep.Sessions = r.u64()
			rep.Rounds = r.u64()
			rep.Requests = r.u64()
			rep.Accepted = r.u64()
			rep.DecideNanos = r.u64()
			return r.done()
		})
		if err != nil {
			return nil, err
		}
	}
	return reps, nil
}

// TotalRequests returns the cumulative request volume shipped since the
// last TakeMetrics, summed across sessions.
func (b *Bank) TotalRequests() int64 {
	var reqs int64
	for _, ses := range b.sessions {
		ses.mu.Lock()
		reqs += ses.requests
		ses.mu.Unlock()
	}
	return reqs
}

// TakeMetrics returns and clears the recorded round latencies and
// request volume of every session. Sessions record into their own
// accumulators under their own locks, so concurrent DecideRounds and a
// TakeMetrics never race.
func (b *Bank) TakeMetrics() ([]time.Duration, int64) {
	var lat []time.Duration
	var reqs int64
	for _, ses := range b.sessions {
		l, r := ses.TakeMetrics()
		lat = append(lat, l...)
		reqs += r
	}
	return lat, reqs
}

// Close closes every shard connection.
func (b *Bank) Close() error {
	for _, sc := range b.conns {
		sc.close()
	}
	return nil
}

// Session is one multiplexed protocol session of a Bank: an independent
// core.ServerBank whose server-side state (one ServerShard per shard,
// keyed by the session id in the frame header) lives alongside its
// siblings' on the shared connections. One Driver drives one Session;
// distinct Sessions run concurrently, which is how `saer-client
// -trials T -sessions S` overlaps T trials S at a time over one socket
// set.
type Session struct {
	b      *Bank
	id     uint32
	shards []*sessionShard
	active []int // shard indexes with an in-flight round call
	// ends[i] is the end of shard i's slice of the round being decided.
	ends []int
	// loads is the per-server load vector Loads fills and returns,
	// accepted and burned back the decision lists DecideRound returns,
	// and acceptBits and burned DecideCounted's decision.
	loads            []int32
	accepted, burned []int32
	acceptBits       []uint64

	// Round metrics, session-local and lock-guarded: the Bank merges
	// them at read, so concurrent sessions never contend on shared
	// accumulators (and the race detector agrees).
	mu       sync.Mutex
	roundLat []time.Duration
	requests int64
}

// sessionShard is one session's per-shard client state: the encode
// scratch, the decode buffers the reply-parse hook fills and the call
// every request of the pair reuses. At most one call per (session,
// shard) is in flight, so no further locking is needed.
type sessionShard struct {
	out            []byte
	wraps          []int32 // a counted round's window-local wrap entries
	accepted       []int32
	acceptWords    []uint64 // a counted reply's accept bitmap words
	burned         []int32
	loads          []int32
	sat            int
	pc             *pendingCall
	parseRoundFn   func([]byte) error // bound once; avoids a per-round closure
	parseCountedFn func([]byte) error
	parseLoadsFn   func([]byte) error
}

func (ss *sessionShard) parseRound(payload []byte) (err error) {
	ss.accepted, ss.burned, ss.sat, err = decodeRoundReply(payload, ss.accepted[:0], ss.burned[:0])
	return err
}

func (ss *sessionShard) parseCounted(payload []byte) (err error) {
	ss.acceptWords, ss.burned, ss.sat, err = decodeCountedReply(payload, ss.acceptWords[:0], ss.burned[:0])
	return err
}

func (ss *sessionShard) parseLoads(payload []byte) (err error) {
	ss.loads, err = decodeLoads(payload, ss.loads[:0])
	return err
}

func parseEmpty(payload []byte) error {
	if len(payload) != 0 {
		return fmt.Errorf("wire: unexpected %d-byte payload in empty reply", len(payload))
	}
	return nil
}

// Reset re-initializes every shard for a new run. It begins every
// shard's reset before waiting for any reply, as DecideRound and Loads
// do, so the shards reset concurrently. A shard whose call fails on a
// dead connection (a killed/restarted server process) is retried once:
// the retry redials — with the Bank's bounded backoff — and replays the
// reset against the fresh process.
func (s *Session) Reset(initialLoads []int) error {
	if err := core.CheckInitialLoads(initialLoads, s.b.m); err != nil {
		return err
	}
	for i, sc := range s.b.conns {
		ss := s.shards[i]
		ss.out = ss.out[:0]
		if initialLoads == nil {
			ss.out = append(ss.out, 0)
		} else {
			ss.out = append(ss.out, 1)
			ss.out = appendU32(ss.out, uint32(sc.hi-sc.lo))
			for _, l := range initialLoads[sc.lo:sc.hi] {
				if l < 0 {
					l = 0
				}
				ss.out = appendI32(ss.out, int32(l))
			}
		}
		sc.begin(ss.pc, s.id, msgReset, ss.out, msgResetOK, parseEmpty)
	}
	s.active = s.active[:0]
	for i, sc := range s.b.conns {
		if err := sc.wait(s.shards[i].pc); err != nil {
			s.active = append(s.active, i)
		}
	}
	for _, i := range s.active {
		ss := s.shards[i]
		s.b.conns[i].begin(ss.pc, s.id, msgReset, ss.out, msgResetOK, parseEmpty)
	}
	var firstErr error
	for _, i := range s.active {
		if err := s.b.conns[i].wait(s.shards[i].pc); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DecideRound splits the sorted batch across the shard windows, begins
// one pipelined call per touched shard (the writes overlap every shard's
// server-side decide), then gathers the replies in shard order — windows
// ascend, so the concatenated decision lists stay sorted. Shards that
// received nothing are skipped entirely — no frame, no state change,
// matching core.LocalBank. Each window's end is a binary search of the
// ascending batch, and every end is found before any call begins, so an
// id outside every window fails the round with no shard sent anything.
// A batch out of order can still reach a shard as a slice it rejects
// (see core.ServerBank). The decision's lists are the session's own
// buffers, overwritten by its next DecideRound.
func (s *Session) DecideRound(touched, counts []int32) (core.RoundDecision, error) {
	if len(touched) != len(counts) {
		return core.RoundDecision{}, fmt.Errorf("wire: round batch with %d touched but %d counts", len(touched), len(counts))
	}
	start := time.Now()
	from := 0
	for i, sc := range s.b.conns {
		k, _ := slices.BinarySearch(touched[from:], sc.hi)
		from += k
		s.ends[i] = from
	}
	if from != len(touched) {
		return core.RoundDecision{}, fmt.Errorf("wire: server %d outside every shard window", touched[from])
	}
	if len(touched) > 0 && touched[0] < 0 {
		return core.RoundDecision{}, fmt.Errorf("wire: server %d outside every shard window", touched[0])
	}
	s.active = s.active[:0]
	from = 0
	for i, sc := range s.b.conns {
		to := s.ends[i]
		if to == from {
			continue
		}
		ss := s.shards[i]
		ss.out = appendRound(ss.out[:0], touched[from:to], counts[from:to])
		sc.begin(ss.pc, s.id, msgRound, ss.out, msgRoundReply, ss.parseRoundFn)
		s.active = append(s.active, i)
		from = to
	}
	var firstErr error
	for _, i := range s.active {
		if err := s.b.conns[i].wait(s.shards[i].pc); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return core.RoundDecision{}, firstErr
	}
	dec := core.RoundDecision{Accepted: s.accepted[:0], NewlyBurned: s.burned[:0]}
	for _, i := range s.active {
		ss := s.shards[i]
		dec.Accepted = append(dec.Accepted, ss.accepted...)
		dec.NewlyBurned = append(dec.NewlyBurned, ss.burned...)
		dec.Saturated += ss.sat
	}
	s.accepted, s.burned = dec.Accepted, dec.NewlyBurned
	s.mu.Lock()
	s.roundLat = append(s.roundLat, time.Since(start))
	for _, c := range counts {
		s.requests += int64(c)
	}
	s.mu.Unlock()
	return dec, nil
}

// DecideCounted checks the whole counted round (core.CheckCounted)
// before it sends anything, then begins one pipelined call per shard
// whose window received requests, carrying the window's counts and its
// wrap entries as window cells, and gathers the replies in shard order.
// A shard whose window received nothing gets no frame and no state
// change, as in DecideRound. Each reply's window bitmap must hold one
// bit per window server and no bit past the window, and its newly
// burned servers must lie inside the window; the bitmap is ORed into
// the session's accept bitmap over every server at the window's offset,
// and the lists are joined in shard order, ascending. The round's
// latency and requests count as its pairs would. The decision's slices
// are the session's own buffers, overwritten by its next DecideRound or
// DecideCounted.
func (s *Session) DecideCounted(counts []uint8, wraps []int32) (core.CountedDecision, error) {
	if err := core.CheckCounted(counts, wraps, s.b.m); err != nil {
		return core.CountedDecision{}, err
	}
	start := time.Now()
	s.active = s.active[:0]
	from := 0
	for i, sc := range s.b.conns {
		k, _ := slices.BinarySearch(wraps[from:], sc.hi)
		to := from + k
		window := counts[sc.lo:sc.hi]
		if to == from && !slices.ContainsFunc(window, func(c uint8) bool { return c != 0 }) {
			continue
		}
		ss := s.shards[i]
		ss.wraps = ss.wraps[:0]
		for _, u := range wraps[from:to] {
			ss.wraps = append(ss.wraps, u-sc.lo)
		}
		ss.out = appendCounted(ss.out[:0], window, ss.wraps)
		sc.begin(ss.pc, s.id, msgCounted, ss.out, msgCountedReply, ss.parseCountedFn)
		s.active = append(s.active, i)
		from = to
	}
	var firstErr error
	for _, i := range s.active {
		if err := s.b.conns[i].wait(s.shards[i].pc); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return core.CountedDecision{}, firstErr
	}
	clear(s.acceptBits)
	dec := core.CountedDecision{Accepted: s.acceptBits, NewlyBurned: s.burned[:0]}
	for _, i := range s.active {
		ss, lo, hi := s.shards[i], int(s.b.conns[i].lo), int(s.b.conns[i].hi)
		if err := checkWindowReply(ss.acceptWords, ss.burned, lo, hi); err != nil {
			return core.CountedDecision{}, err
		}
		orWindow(s.acceptBits, ss.acceptWords, lo)
		dec.NewlyBurned = append(dec.NewlyBurned, ss.burned...)
		dec.Saturated += ss.sat
	}
	s.burned = dec.NewlyBurned
	s.mu.Lock()
	s.roundLat = append(s.roundLat, time.Since(start))
	s.requests += core.CountedRequests(counts, wraps, nil)
	s.mu.Unlock()
	return dec, nil
}

// checkWindowReply checks one shard's answer to a counted round against
// its window [lo, hi): the window bitmap holds one bit per window
// server and sets none past the window, and the newly burned servers,
// which the Driver checks for order, start and end inside it.
func checkWindowReply(words []uint64, burned []int32, lo, hi int) error {
	n := hi - lo
	if want := (n + 63) / 64; len(words) != want {
		return fmt.Errorf("wire: shard [%d,%d) answered with %d bitmap words, want %d", lo, hi, len(words), want)
	}
	if n&63 != 0 && words[len(words)-1]>>(n&63) != 0 {
		return fmt.Errorf("wire: shard [%d,%d) accepted a server outside its window", lo, hi)
	}
	if len(burned) > 0 && (int(burned[0]) < lo || int(burned[len(burned)-1]) >= hi) {
		return fmt.Errorf("wire: shard [%d,%d) burned a server outside its window", lo, hi)
	}
	return nil
}

// orWindow ORs a window bitmap, bit i for server lo+i, into dst, the
// bitmap over every server. The window's bits past its last server are
// zero (checkWindowReply), so a word whose upper part is zero writes
// nothing past the window.
func orWindow(dst, src []uint64, lo int) {
	w, sh := lo>>6, uint(lo&63)
	for k, x := range src {
		dst[w+k] |= x << sh
		if sh != 0 {
			if up := x >> (64 - sh); up != 0 {
				dst[w+k+1] |= up
			}
		}
	}
}

// Loads begins one load request per shard before waiting for any reply,
// as DecideRound does, then gathers the shard windows into the full
// per-server vector. The vector is the session's own buffer, like
// core.LocalBank's: the next Loads call overwrites it.
func (s *Session) Loads() ([]int32, error) {
	for i, sc := range s.b.conns {
		ss := s.shards[i]
		sc.begin(ss.pc, s.id, msgLoads, nil, msgLoadsReply, ss.parseLoadsFn)
	}
	var firstErr error
	for i, sc := range s.b.conns {
		if err := sc.wait(s.shards[i].pc); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for i, sc := range s.b.conns {
		ss := s.shards[i]
		if len(ss.loads) != int(sc.hi-sc.lo) {
			return nil, fmt.Errorf("wire: shard [%d,%d) returned %d loads", sc.lo, sc.hi, len(ss.loads))
		}
		copy(s.loads[sc.lo:sc.hi], ss.loads)
	}
	return s.loads, nil
}

// TakeMetrics returns and clears this session's recorded round latencies
// and request volume.
func (s *Session) TakeMetrics() ([]time.Duration, int64) {
	s.mu.Lock()
	lat, reqs := s.roundLat, s.requests
	s.roundLat, s.requests = nil, 0
	s.mu.Unlock()
	return lat, reqs
}

// Close satisfies core.ServerBank; the connections belong to the Bank,
// so a session close is a no-op.
func (s *Session) Close() error { return nil }
