package core

import "fmt"

// RoundDecision is a server bank's phase-2 answer for one round: which
// servers accepted the round's requests, which newly burned, and how
// many saturated (rejected while not burned). When the round's touched
// list is sorted ascending — the Driver's contract — both output lists
// are sorted ascending too.
type RoundDecision struct {
	// Accepted lists the servers that accepted this round's requests
	// (SAER: received without exceeding the cumulative threshold; RAES:
	// load stayed within capacity).
	Accepted []int32
	// NewlyBurned lists the servers that crossed the cumulative
	// received threshold this round (SAER: burned for good; RAES:
	// diagnostic only — see Result.BurnedServers).
	NewlyBurned []int32
	// Saturated counts the servers that rejected the round while not
	// burned (RAES saturation; for SAER it equals len(NewlyBurned)).
	Saturated int
}

// ServerBank is the transport-agnostic server side of the protocol: the
// phase-B threshold decisions, abstracted away from *where* the server
// state lives. The in-process LocalBank applies the rules directly; the
// wire client (internal/wire) implements the same interface by sending
// batched round frames to remote server-shard processes. The Driver is
// the client side that runs the full protocol against any bank, and its
// results are bit-for-bit those of Config.Run — the interface carries
// per-round (server, count) batches, not per-ball messages, which is
// what makes the wire transport viable at millions of balls.
//
// Per-run server state is rebuilt by Reset, so a bank is reusable
// across trials and epochs (the churn scheduler's executors rely on
// exactly that: a restarted server process is indistinguishable from a
// recovered one).
type ServerBank interface {
	// Reset re-initializes every server for a new run. initialLoads
	// pre-loads the servers (nil = all zero; otherwise one entry per
	// server): a server starting at or beyond the capacity is burned
	// from the start, matching Config.InitialLoads semantics.
	Reset(initialLoads []int) error
	// DecideRound applies the variant's threshold rule to one round's
	// received batch: touched lists the servers that received requests
	// this round, sorted ascending without duplicates, and counts[i] is
	// the number of requests touched[i] received. Servers not listed
	// received nothing and must not change state.
	DecideRound(touched, counts []int32) (RoundDecision, error)
	// Loads returns the per-server accepted load vector (all servers).
	// The vector may be the bank's own buffer, overwritten by its next
	// Loads call; a caller that keeps it copies it.
	Loads() ([]int32, error)
	// Close releases the bank's resources (network connections for
	// remote banks; a no-op locally).
	Close() error
}

// ServerShard is the protocol's server-side state for a contiguous
// server window [Lo, Hi), and rule is the one implementation of the
// SAER/RAES threshold rules. The Runner decides each router shard's
// servers in process through applyBlock, the LocalBank composes shards
// behind the ServerBank interface, and the wire server process wraps one
// shard per session. Methods are not concurrency-safe — each shard is
// owned by one goroutine (or one process).
type ServerShard struct {
	variant  Variant
	capacity int32
	lo, hi   int

	load          []int32
	receivedTotal []int32
	burned        []bool
}

// NewServerShard returns the server state for window [lo, hi).
func NewServerShard(variant Variant, capacity int32, lo, hi int) (*ServerShard, error) {
	if variant != SAER && variant != RAES {
		return nil, fmt.Errorf("core: unknown protocol variant %d", int(variant))
	}
	if capacity < 1 {
		return nil, fmt.Errorf("core: shard capacity must be at least 1, got %d", capacity)
	}
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("core: invalid shard window [%d, %d)", lo, hi)
	}
	n := hi - lo
	return windowShard(variant, capacity, lo, hi, make([]int32, n), make([]int32, n), make([]bool, n)), nil
}

// windowShard returns a shard for window [lo, hi) over caller-owned
// state: load, receivedTotal and burned are the window's slices of
// arrays covering every server, so a caller holding the whole arrays
// reads the shards' burned flags and loads without copies.
func windowShard(variant Variant, capacity int32, lo, hi int, load, receivedTotal []int32, burned []bool) *ServerShard {
	return &ServerShard{
		variant:       variant,
		capacity:      capacity,
		lo:            lo,
		hi:            hi,
		load:          load[:hi-lo],
		receivedTotal: receivedTotal[:hi-lo],
		burned:        burned[:hi-lo],
	}
}

// Window returns the shard's server index range [lo, hi).
func (s *ServerShard) Window() (lo, hi int) { return s.lo, s.hi }

// Reset re-initializes the shard's servers. initialLoads holds the
// shard-local window (length hi-lo) of the run's initial loads; nil
// means all zero.
func (s *ServerShard) Reset(initialLoads []int32) error {
	if initialLoads != nil && len(initialLoads) != s.hi-s.lo {
		return fmt.Errorf("core: shard [%d,%d) reset with %d initial loads", s.lo, s.hi, len(initialLoads))
	}
	resetShard(s, initialLoads, 0)
	return nil
}

// resetFrom re-initializes the shard from its window of a run's initial
// loads over every server (nil = all zero), without copying the window.
func (s *ServerShard) resetFrom(initialLoads []int) { resetShard(s, initialLoads, s.lo) }

// resetShard sets every window server j's starting load to
// initialLoads[off+j] (nil or negative = 0). The clamp comes before the
// conversion to int32, so an entry below MinInt32 starts at 0, as on
// every other server half, rather than wrapping. A server already at (or
// beyond) capacity can never accept another ball: under SAER it is
// burned from the start and under RAES the acceptance test always
// fails; marking it burned keeps the diagnostic series consistent.
func resetShard[L int | int32](s *ServerShard, initialLoads []L, off int) {
	for j := range s.load {
		var l int32
		if initialLoads != nil {
			l = int32(max(initialLoads[off+j], 0))
		}
		s.load[j] = l
		s.receivedTotal[j] = l
		s.burned[j] = l >= s.capacity
	}
}

// rule applies the variant's threshold rule to window server j, which
// received recv > 0 requests this round, and reports whether it accepted
// them, burned for the first time, and saturated (rejected the round
// while not burned).
//
// receivedTotal is read only while the server is not burned, and then it
// is at most the capacity. So recv > capacity-receivedTotal is
// receivedTotal+recv > capacity without the int32 overflow that a huge
// count (a malformed wire batch) would cause, and a burned server's
// total is no longer kept.
func (s *ServerShard) rule(j int, recv int32) (accepted, newlyBurned, saturated bool) {
	switch s.variant {
	case SAER:
		if s.burned[j] {
			// A burned server rejects everything; not a new saturation
			// event.
			return false, false, false
		}
		if recv > s.capacity-s.receivedTotal[j] {
			s.burned[j] = true
			return false, true, true
		}
		s.receivedTotal[j] += recv
	default: // RAES
		if !s.burned[j] {
			if recv > s.capacity-s.receivedTotal[j] {
				// Diagnostic only: the server would be burned under
				// SAER's stronger rule; RAES itself keeps going.
				s.burned[j] = true
				newlyBurned = true
			} else {
				s.receivedTotal[j] += recv
			}
		}
		// recv > capacity-load is load+recv > capacity without the
		// int32 overflow a load near MaxInt32 would cause.
		if recv > s.capacity-s.load[j] {
			return false, newlyBurned, true
		}
	}
	s.load[j] += recv
	return true, newlyBurned, false
}

// applyBlock runs the rule on a block of the shard's servers, servers[i]
// having received counts[i] > 0 requests, sets each accepting server's
// bit in accepted, the accept set over every server, and returns the
// block's new burns and saturations. Shard windows are whole 64-server
// words of the set, so owners of distinct shards apply blocks
// concurrently.
func (s *ServerShard) applyBlock(servers, counts []int32, accepted []uint64) (newlyBurned, saturated int) {
	for i, u := range servers {
		acc, burned, sat := s.rule(int(u)-s.lo, counts[i])
		if acc {
			accepted[u>>6] |= 1 << (u & 63)
		}
		if burned {
			newlyBurned++
		}
		if sat {
			saturated++
		}
	}
	return newlyBurned, saturated
}

// Decide applies the threshold rule to the shard's slice of one round's
// batch: touched must lie inside the window, strictly ascending (sorted,
// no duplicates), counts parallel to it and positive. Accepted and
// newly-burned servers are appended to the provided slices (preserving
// input order) and returned with the saturation count. A malformed batch
// is rejected, naming its first bad entry, before any entry is applied,
// so a rejected batch leaves the shard as it was.
func (s *ServerShard) Decide(touched, counts []int32, accepted, newlyBurned []int32) (acc, nb []int32, saturated int, err error) {
	if err := s.checkBatch(touched, counts); err != nil {
		return accepted, newlyBurned, 0, err
	}
	for i, u := range touched {
		a, b, sat := s.rule(int(u)-s.lo, counts[i])
		if a {
			accepted = append(accepted, u)
		}
		if b {
			newlyBurned = append(newlyBurned, u)
		}
		if sat {
			saturated++
		}
	}
	return accepted, newlyBurned, saturated, nil
}

// checkBatch reports the first entry that makes (touched, counts) a
// malformed batch for Decide. A well-formed batch is strictly ascending
// with positive counts, and its first and last servers lie inside the
// window, so the common case is one pass that ORs each step's
// u - prev - 1 and count - 1 into a word whose sign bit records any
// failure, without a branch per entry; only a malformed batch is walked
// again to name its first bad entry.
func (s *ServerShard) checkBatch(touched, counts []int32) error {
	if len(touched) != len(counts) {
		return fmt.Errorf("core: shard decide with %d touched but %d counts", len(touched), len(counts))
	}
	if len(touched) == 0 {
		return nil
	}
	counts = counts[:len(touched)]
	bad := int64(counts[0]) - 1
	for i := 1; i < len(touched); i++ {
		bad |= int64(touched[i]) - int64(touched[i-1]) - 1
		bad |= int64(counts[i]) - 1
	}
	if bad >= 0 && int(touched[0]) >= s.lo && int(touched[len(touched)-1]) < s.hi {
		return nil
	}
	for i, u := range touched {
		if int(u) < s.lo || int(u) >= s.hi {
			return fmt.Errorf("core: server %d outside shard window [%d, %d)", u, s.lo, s.hi)
		}
		if i > 0 && u <= touched[i-1] {
			return fmt.Errorf("core: round batch not strictly ascending at server %d", u)
		}
		if counts[i] <= 0 {
			return fmt.Errorf("core: server %d touched with count %d", u, counts[i])
		}
	}
	return nil
}

// Loads returns the shard's accepted load window (aliasing; read-only).
func (s *ServerShard) Loads() []int32 { return s.load }

// LocalBank is the in-process ServerBank: the shards live in this
// process and decisions are applied directly. It is the reference
// implementation the wire transport is tested against, and the
// single-process way to run the Driver (netsim-style executions, the
// wire aggregator's cross-checks).
type LocalBank struct {
	shards []*ServerShard
	m      int
	loads  []int32
}

// NewLocalBank returns an in-process bank of `shards` contiguous server
// shards covering [0, m). Shard windows differ in size by at most one.
func NewLocalBank(variant Variant, capacity int32, m, shards int) (*LocalBank, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: bank needs at least one server, got %d", m)
	}
	if shards <= 0 || shards > m {
		shards = min(max(shards, 1), m)
	}
	b := &LocalBank{m: m, loads: make([]int32, m)}
	per, rem := m/shards, m%shards
	lo := 0
	for s := 0; s < shards; s++ {
		size := per
		if s < rem {
			size++
		}
		sh, err := NewServerShard(variant, capacity, lo, lo+size)
		if err != nil {
			return nil, err
		}
		b.shards = append(b.shards, sh)
		lo += size
	}
	return b, nil
}

// Shards returns the bank's shard count.
func (b *LocalBank) Shards() int { return len(b.shards) }

// Reset re-initializes every shard with its window of initialLoads.
func (b *LocalBank) Reset(initialLoads []int) error {
	if err := CheckInitialLoads(initialLoads, b.m); err != nil {
		return err
	}
	for _, sh := range b.shards {
		sh.resetFrom(initialLoads)
	}
	return nil
}

// DecideRound splits the batch across the shard windows and applies each
// shard's rule; each shard rejects entries outside its window or out of
// strictly ascending order, so an unsorted or duplicated batch fails.
// Shard windows are contiguous ascending ranges, so concatenating the
// per-shard outputs in shard order keeps the decision lists sorted.
func (b *LocalBank) DecideRound(touched, counts []int32) (RoundDecision, error) {
	var dec RoundDecision
	if len(touched) != len(counts) {
		return dec, fmt.Errorf("core: round batch with %d touched but %d counts", len(touched), len(counts))
	}
	from := 0
	for _, sh := range b.shards {
		_, hi := sh.Window()
		to := from
		for to < len(touched) && int(touched[to]) < hi {
			to++
		}
		if to == from {
			continue
		}
		acc, nb, sat, err := sh.Decide(touched[from:to], counts[from:to], dec.Accepted, dec.NewlyBurned)
		if err != nil {
			return RoundDecision{}, err
		}
		dec.Accepted, dec.NewlyBurned, dec.Saturated = acc, nb, dec.Saturated+sat
		from = to
	}
	if from != len(touched) {
		return RoundDecision{}, fmt.Errorf("core: server %d outside every shard window", touched[from])
	}
	return dec, nil
}

// Loads concatenates the shard load windows into the full vector.
func (b *LocalBank) Loads() ([]int32, error) {
	for _, sh := range b.shards {
		lo, hi := sh.Window()
		copy(b.loads[lo:hi], sh.Loads())
	}
	return b.loads, nil
}

// Close is a no-op for the in-process bank.
func (b *LocalBank) Close() error { return nil }
