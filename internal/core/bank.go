package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/engine"
)

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
	//
	// The decision's lists may be the bank's own buffers, overwritten by
	// its next DecideRound call; a caller applies the decision (the
	// Driver does, at once) or copies it before that call.
	//
	// A batch that breaks the contract is an error. A bank that can see
	// the whole batch before it applies any of it rejects it with every
	// server as it was: LocalBank checks every shard's slice first, and
	// the wire bank rejects an id outside every shard window before it
	// sends anything. A remote shard can still reject its own slice,
	// unsorted or with a count ≤ 0, after other shards applied theirs;
	// after such an error the bank's state is undefined until Reset,
	// and every Driver.Run resets first.
	DecideRound(touched, counts []int32) (RoundDecision, error)
	// Loads returns the per-server accepted load vector (all servers).
	// The vector may be the bank's own buffer, overwritten by its next
	// Loads call; a caller that keeps it copies it.
	Loads() ([]int32, error)
	// Close releases the bank's resources (network connections for
	// remote banks; a no-op locally).
	Close() error
}

// CountedDecision is a bank's answer to a counted round (see
// CountedBank): the accept set as a bitmap, the newly burned servers and
// the saturation count.
type CountedDecision struct {
	// Accepted has bit u&63 of word u>>6 set when server u accepted the
	// round's requests: (m+63)/64 words over a bank of m servers.
	Accepted []uint64
	// NewlyBurned lists the servers that crossed the cumulative received
	// threshold this round, ascending (as in RoundDecision).
	NewlyBurned []int32
	// Saturated counts the servers that rejected the round while not
	// burned (as in RoundDecision).
	Saturated int
}

// CountedBank is a ServerBank with the optional counted-round method: it
// decides a round handed over as dense per-server counts rather than as
// (server, count) pairs, and answers with an accept bitmap. A Driver
// counts a round, and ships it this way, only when its bank implements
// the method and the dense form is no larger than the pairs could be
// (see shipsDense); every other round is routed and goes through
// DecideRound. LocalBank and the wire banks implement it; a wrapper that
// embeds the ServerBank interface exposes only that interface's methods,
// so its Driver routes every round.
type CountedBank interface {
	ServerBank
	// DecideCounted applies the variant's threshold rule to one counted
	// round. counts holds one byte per server, server u's request count
	// mod 256, and wraps lists, ascending, the servers that received 256
	// more per entry: the one-worker form of an engine.ByteTally round
	// (ByteTally.Fold). A server whose count is 0 received nothing and
	// must not change state. The bank reads counts and wraps during the
	// call only and writes neither.
	//
	// The decision's slices may be the bank's own buffers, overwritten by
	// its next DecideRound or DecideCounted call, as for DecideRound.
	//
	// A round that breaks the contract (not one byte per server, wrap
	// entries unsorted or outside the bank, or a count past MaxInt32) is
	// an error. LocalBank and the wire bank check the whole round
	// (CheckCounted) before any server decides, so a rejected round leaves
	// every server as it was; a remote shard can still reject its part on
	// its own (see DecideRound).
	DecideCounted(counts []uint8, wraps []int32) (CountedDecision, error)
}

// CheckCounted reports the first way in which (counts, wraps) is not a
// counted round over cells cells: counts must hold one byte per cell,
// and wraps must be ascending cells in [0, cells) whose count, the
// byte plus 256 per entry, is at most MaxInt32.
func CheckCounted(counts []uint8, wraps []int32, cells int) error {
	if len(counts) != cells {
		return fmt.Errorf("core: counted round with %d counts for %d servers", len(counts), cells)
	}
	for i := 0; i < len(wraps); {
		u := wraps[i]
		if u < 0 || int(u) >= cells {
			return fmt.Errorf("core: counted round wrap entry %d at server %d outside [0, %d)", i, u, cells)
		}
		if i > 0 && u < wraps[i-1] {
			return fmt.Errorf("core: counted round wrap entries not ascending at entry %d (server %d after %d)", i, u, wraps[i-1])
		}
		k := i + 1
		for k < len(wraps) && wraps[k] == u {
			k++
		}
		if n := int64(counts[u]) + 256*int64(k-i); n > math.MaxInt32 {
			return fmt.Errorf("core: counted round gives server %d a count of %d, past MaxInt32", u, n)
		}
		i = k
	}
	return nil
}

// ServerShard is the protocol's server-side state for a contiguous
// server window [Lo, Hi), and saer and raes are the one implementation
// of each threshold rule. The Runner decides each router shard's
// servers in process (applyBlock on a routed round, decideCounted on a
// counted one), the LocalBank composes shards behind the ServerBank
// interface, and the wire server process wraps one shard per session.
// Methods are not concurrency-safe — each shard is owned by one
// goroutine (or one process).
//
// Under SAER a server's cumulative received total always equals its
// load: both start at the clamped initial load, an accept adds the
// round's count to both, and a burn changes neither. So only RAES
// shards keep receivedTotal (nil under SAER).
type ServerShard struct {
	variant  Variant
	capacity int32
	lo, hi   int

	load          []int32
	receivedTotal []int32
	burned        []bool

	// counted is DecideCounted's scratch, allocated by its first call.
	counted *countedScratch
}

// countedScratch is a shard's scratch for a bank's counted decide: the
// view that reads a round's counts, the burned flags as they stood
// before the round, and the twin that DecideCounted decides through.
type countedScratch struct {
	view engine.ByteTally
	was  []bool
	twin *ServerShard
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
	var received []int32
	if variant == RAES {
		received = make([]int32, n)
	}
	return windowShard(variant, capacity, lo, hi, make([]int32, n), received, make([]bool, n)), nil
}

// windowShard returns a shard for window [lo, hi) over caller-owned
// state: load, receivedTotal and burned are the window's slices of
// arrays covering every server, so a caller holding the whole arrays
// reads the shards' burned flags and loads without copies.
// receivedTotal is nil under SAER.
func windowShard(variant Variant, capacity int32, lo, hi int, load, receivedTotal []int32, burned []bool) *ServerShard {
	n := hi - lo
	s := &ServerShard{
		variant:  variant,
		capacity: capacity,
		lo:       lo,
		hi:       hi,
		load:     load[:n],
		burned:   burned[:n],
	}
	if receivedTotal != nil {
		s.receivedTotal = receivedTotal[:n]
	}
	return s
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
// fails; marking it burned keeps the diagnostic series consistent. Only
// a RAES shard's received totals are written.
func resetShard[L int | int32](s *ServerShard, initialLoads []L, off int) {
	for j := range s.load {
		var l int32
		if initialLoads != nil {
			l = int32(max(initialLoads[off+j], 0))
		}
		s.load[j] = l
		s.burned[j] = l >= s.capacity
	}
	if s.receivedTotal != nil {
		copy(s.receivedTotal, s.load)
	}
}

// saer and raes apply their variant's threshold rule to window server
// j, which received recv > 0 requests this round, and report whether it
// accepted them and whether it burned for the first time. A SAER server
// saturates (rejects the round while not burned) exactly when it newly
// burns, and a RAES server whenever it rejects. Each is small enough to
// inline, so applyBlock, decide and decideCounted pick the variant once
// per call and pay no call per server.
//
// recv = 0 leaves the server's state as it was under both rules: a
// server that is not burned has a received total of at most the
// capacity, so it cannot burn, and its load gains nothing. The answer
// is then "accepted" for a SAER server that is not burned and
// "rejected" for a RAES server whose load starts above the capacity, so
// a caller that passes zero counts masks both by recv > 0.
//
// The received total (SAER's load) is read only while the server is not
// burned, and then it is at most the capacity. So recv > capacity-total
// is total+recv > capacity without the int32 overflow that a huge count
// (a malformed wire batch) would cause, and a burned server's total is
// no longer kept.
func (s *ServerShard) saer(j int, recv int32) (accepted, newlyBurned bool) {
	if s.burned[j] {
		// A burned server rejects everything; not a new saturation event.
		return false, false
	}
	if recv > s.capacity-s.load[j] {
		s.burned[j] = true
		return false, true
	}
	s.load[j] += recv
	return true, false
}

func (s *ServerShard) raes(j int, recv int32) (accepted, newlyBurned bool) {
	if !s.burned[j] {
		if recv > s.capacity-s.receivedTotal[j] {
			// Diagnostic only: the server would be burned under SAER's
			// stronger rule; RAES itself keeps going.
			s.burned[j] = true
			newlyBurned = true
		} else {
			s.receivedTotal[j] += recv
		}
	}
	// recv > capacity-load is load+recv > capacity without the int32
	// overflow a load near MaxInt32 would cause.
	if recv > s.capacity-s.load[j] {
		return false, newlyBurned
	}
	s.load[j] += recv
	return true, newlyBurned
}

// applyBlock runs the rule on servers, the shard's servers that
// received requests this round, server u having received counts[u] > 0
// (counts is indexed by server id, as a routed round's stamped tally
// is), sets each accepting server's bit in accepted, the accept set
// over every server, and returns the new burns and saturations. Shard
// windows are whole 64-server words of the set, so owners of distinct
// shards apply their servers concurrently.
func (s *ServerShard) applyBlock(servers, counts []int32, accepted []uint64) (newlyBurned, saturated int) {
	if s.variant == SAER {
		for _, u := range servers {
			acc, burned := s.saer(int(u)-s.lo, counts[u])
			if acc {
				accepted[u>>6] |= 1 << (u & 63)
			}
			if burned {
				newlyBurned++
			}
		}
		return newlyBurned, newlyBurned
	}
	for _, u := range servers {
		acc, burned := s.raes(int(u)-s.lo, counts[u])
		if acc {
			accepted[u>>6] |= 1 << (u & 63)
		} else {
			saturated++
		}
		if burned {
			newlyBurned++
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
	acc, nb, saturated = s.decide(touched, counts, accepted, newlyBurned)
	return acc, nb, saturated, nil
}

// DecideCounted applies the threshold rule to a counted round over the
// shard's window [lo, hi), the form a wire server reads off a counted
// frame: counts[i] is server lo+i's request count mod 256, and wraps
// lists, ascending, the window cells i (server lo+i) that take 256 more
// per entry (see CountedBank). It writes the window's accept bitmap to
// accepted, which must hold WindowWords words: bit i&63 of
// accepted[i>>6] is set when server lo+i accepted. It appends the newly
// burned servers to newlyBurned, ascending, and returns them with the
// saturation count and the requests the accepting servers received. A
// malformed round (see CheckCounted) is rejected before any server
// changes. counts and wraps are only read.
//
// The dense pass runs on a twin of the shard over the same state
// slices whose window is [0, hi-lo), so its servers are the round's
// cells and its accept set is the window's bitmap.
func (s *ServerShard) DecideCounted(counts []uint8, wraps []int32, accepted []uint64, newlyBurned []int32) (nb []int32, saturated int, acceptedReqs int64, err error) {
	if err := CheckCounted(counts, wraps, s.hi-s.lo); err != nil {
		return newlyBurned, 0, 0, err
	}
	if len(accepted) != s.WindowWords() {
		return newlyBurned, 0, 0, fmt.Errorf("core: shard [%d,%d) accept bitmap of %d words, want %d", s.lo, s.hi, len(accepted), s.WindowWords())
	}
	sc := s.scratch()
	if sc.twin == nil {
		sc.twin = windowShard(s.variant, s.capacity, 0, s.hi-s.lo, s.load, s.receivedTotal, s.burned)
	}
	clear(accepted)
	nb, saturated = s.decideBank(sc.twin, counts, wraps, accepted, newlyBurned)
	return nb, saturated, CountedRequests(counts, wraps, accepted), nil
}

// WindowWords returns the number of words of the shard's window
// bitmap, one bit per window server.
func (s *ServerShard) WindowWords() int { return (s.hi - s.lo + 63) / 64 }

// scratch returns the shard's counted-decide scratch, allocating it on
// first use.
func (s *ServerShard) scratch() *countedScratch {
	if s.counted == nil {
		s.counted = &countedScratch{was: make([]bool, s.hi-s.lo)}
	}
	return s.counted
}

// decideBank is a bank's counted decide of the shard's window: the
// dense pass (decideCounted) of dec, the shard itself or its twin, over
// a view of counts and wraps whose cells are dec's servers, into
// accepted, dec's accept set. A bank also answers with the newly burned
// servers, which the pass does not list: decideBank appends the shard's
// to newlyBurned, ascending, from its burned flags before and after the
// pass, and returns them with the saturation count.
func (s *ServerShard) decideBank(dec *ServerShard, counts []uint8, wraps []int32, accepted []uint64, newlyBurned []int32) ([]int32, int) {
	sc := s.scratch()
	copy(sc.was, s.burned)
	sc.view.SetView(counts, wraps)
	_, saturated := dec.decideCounted(&sc.view, accepted, nil)
	return s.appendNewlyBurned(newlyBurned, sc.was), saturated
}

// appendNewlyBurned appends the window's servers whose burned flag is
// set now but not in was to dst, ascending. Stretches of 64 flags that
// did not change are passed over with one comparison.
func (s *ServerShard) appendNewlyBurned(dst []int32, was []bool) []int32 {
	now, before := boolBytes(s.burned), boolBytes(was[:len(s.burned)])
	for j := 0; j < len(now); j += 64 {
		k := min(j+64, len(now))
		if bytes.Equal(now[j:k], before[j:k]) {
			continue
		}
		for i := j; i < k; i++ {
			if now[i] > before[i] {
				dst = append(dst, int32(s.lo+i))
			}
		}
	}
	return dst
}

// boolBytes views the flags of b as their bytes, 0 or 1 each.
func boolBytes(b []bool) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), len(b))
}

// CountedRequests returns the requests of a counted round (see
// CountedBank) that the servers whose bit is set in accepted received,
// or every server when accepted is nil: server u's count is counts[u]
// plus 256 per entry u of wraps, and its bit is bit u&63 of
// accepted[u>>6]. It adds eight counts a step in 16-bit lanes, keeping
// the accepted ones through a byte mask built from their eight accept
// bits; a lane gains at most 2·255 a step, so 128 steps fit before the
// lanes are added up. Every wrap entry must name a server of counts.
func CountedRequests(counts []uint8, wraps []int32, accepted []uint64) int64 {
	const evenBytes = 0x00ff00ff00ff00ff
	bit := func(u int) int64 {
		if accepted == nil {
			return 1
		}
		return int64(accepted[u>>6] >> (u & 63) & 1)
	}
	sumLanes := func(l uint64) int64 { return int64(l&0xffff + l>>16&0xffff + l>>32&0xffff + l>>48) }
	end := len(counts) &^ 7
	var total int64
	var lanes uint64
	for u, steps := 0, 0; u < end; u += 8 {
		mask := ^uint64(0)
		if accepted != nil {
			am := accepted[u>>6] >> (u & 63) & 0xff
			if am == 0 {
				continue
			}
			x := am * 0x0101010101010101 & 0x8040201008040201
			mask = (x + 0x7f7f7f7f7f7f7f7f) & 0x8080808080808080 >> 7 * 0xff
		}
		y := binary.LittleEndian.Uint64(counts[u:]) & mask
		lanes += y&evenBytes + y>>8&evenBytes
		if steps++; steps == 128 {
			total += sumLanes(lanes)
			lanes, steps = 0, 0
		}
	}
	total += sumLanes(lanes)
	for u := end; u < len(counts); u++ {
		total += int64(counts[u]) * bit(u)
	}
	for _, u := range wraps {
		total += 256 * bit(int(u))
	}
	return total
}

// decide is Decide on a batch checkBatch accepted.
func (s *ServerShard) decide(touched, counts, accepted, newlyBurned []int32) ([]int32, []int32, int) {
	counts = counts[:len(touched)]
	saturated := 0
	if s.variant == SAER {
		for i, u := range touched {
			a, b := s.saer(int(u)-s.lo, counts[i])
			if a {
				accepted = append(accepted, u)
			}
			if b {
				newlyBurned = append(newlyBurned, u)
				saturated++
			}
		}
		return accepted, newlyBurned, saturated
	}
	for i, u := range touched {
		a, b := s.raes(int(u)-s.lo, counts[i])
		if a {
			accepted = append(accepted, u)
		} else {
			saturated++
		}
		if b {
			newlyBurned = append(newlyBurned, u)
		}
	}
	return accepted, newlyBurned, saturated
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
	// ends[s] is the end of shard s's slice of the round being decided;
	// accepted and burned back the decision lists DecideRound returns,
	// and acceptBits and burned DecideCounted's decision.
	ends             []int
	accepted, burned []int32
	acceptBits       []uint64
}

// NewLocalBank returns an in-process bank of `shards` contiguous server
// shards covering [0, m), split as SplitWindows splits them; a shard
// count below 1 or above m is clamped into [1, m].
func NewLocalBank(variant Variant, capacity int32, m, shards int) (*LocalBank, error) {
	windows, err := SplitWindows(m, min(max(shards, 1), m))
	if err != nil {
		return nil, err
	}
	b := &LocalBank{m: m, loads: make([]int32, m), ends: make([]int, len(windows)), acceptBits: make([]uint64, (m+63)/64)}
	for _, w := range windows {
		sh, err := NewServerShard(variant, capacity, w[0], w[1])
		if err != nil {
			return nil, err
		}
		b.shards = append(b.shards, sh)
	}
	return b, nil
}

// SplitWindows partitions m servers into shard windows [lo, hi), one per
// shard, contiguous and ascending, sizes differing by at most one. A
// LocalBank and a wire bank's shard servers both split this way, so a
// wire deployment and its in-process reference shard identically.
func SplitWindows(m, shards int) ([][2]int, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: need at least one server, got %d", m)
	}
	if shards <= 0 || shards > m {
		return nil, fmt.Errorf("core: shard count %d outside [1, %d]", shards, m)
	}
	windows := make([][2]int, shards)
	per, rem := m/shards, m%shards
	lo := 0
	for s := range windows {
		size := per
		if s < rem {
			size++
		}
		windows[s] = [2]int{lo, lo + size}
		lo += size
	}
	return windows, nil
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

// DecideRound splits the batch across the shard windows and checks
// every shard's slice before any shard decides, so a rejected batch
// leaves every server as it was: each shard rejects entries outside its
// window or out of strictly ascending order, so an unsorted or
// duplicated batch fails. Shard windows are contiguous ascending
// ranges, so concatenating the per-shard outputs in shard order keeps
// the decision lists sorted. The lists are the bank's own buffers,
// overwritten by the next call.
func (b *LocalBank) DecideRound(touched, counts []int32) (RoundDecision, error) {
	if len(touched) != len(counts) {
		return RoundDecision{}, fmt.Errorf("core: round batch with %d touched but %d counts", len(touched), len(counts))
	}
	from := 0
	for s, sh := range b.shards {
		to := from
		for to < len(touched) && int(touched[to]) < sh.hi {
			to++
		}
		if err := sh.checkBatch(touched[from:to], counts[from:to]); err != nil {
			return RoundDecision{}, err
		}
		b.ends[s] = to
		from = to
	}
	if from != len(touched) {
		return RoundDecision{}, fmt.Errorf("core: server %d outside every shard window", touched[from])
	}
	dec := RoundDecision{Accepted: b.accepted[:0], NewlyBurned: b.burned[:0]}
	from = 0
	for s, sh := range b.shards {
		var sat int
		dec.Accepted, dec.NewlyBurned, sat = sh.decide(touched[from:b.ends[s]], counts[from:b.ends[s]], dec.Accepted, dec.NewlyBurned)
		dec.Saturated += sat
		from = b.ends[s]
	}
	b.accepted, b.burned = dec.Accepted, dec.NewlyBurned
	return dec, nil
}

// DecideCounted checks the whole round (CheckCounted) before any shard
// decides, so a rejected round leaves every server as it was, then
// decides each shard's window in one dense pass over a view of counts
// and wraps, in shard order, so the newly burned list comes out
// ascending. Shards that share a word of the accept bitmap OR their
// bits into it in turn. The decision's slices are the bank's own
// buffers, overwritten by the next call.
func (b *LocalBank) DecideCounted(counts []uint8, wraps []int32) (CountedDecision, error) {
	if err := CheckCounted(counts, wraps, b.m); err != nil {
		return CountedDecision{}, err
	}
	clear(b.acceptBits)
	dec := CountedDecision{Accepted: b.acceptBits, NewlyBurned: b.burned[:0]}
	for _, sh := range b.shards {
		var sat int
		dec.NewlyBurned, sat = sh.decideBank(sh, counts, wraps, b.acceptBits, dec.NewlyBurned)
		dec.Saturated += sat
	}
	b.burned = dec.NewlyBurned
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
