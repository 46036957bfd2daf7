package sram

import (
	"context"
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/telemetry"
)

// Options configures the memory replay.
type Options struct {
	// WordBytes is the operand word size (default 4).
	WordBytes int
	// LineBytes is the DRAM request granularity (default 64).
	LineBytes int
	// MaxRequestsPerCycle bounds how many line requests the interface
	// can issue per cycle (derived from interface bandwidth).
	MaxRequestsPerCycle int
	// StreamWindowWords is the double-buffered stream staging capacity:
	// the producer may run at most this many unconsumed words ahead of
	// the consumer (typically half the ifmap SRAM).
	StreamWindowWords int64
	// MaxCycles aborts runaway simulations (default 2^40).
	MaxCycles int64
	// CollectTrace records every DRAM transaction (arrival cycle,
	// address, type, round-trip) into Result.Trace.
	CollectTrace bool
	// Trace is the parent telemetry span (typically the memory stage's);
	// the replay opens "sram.stream" and "sram.drain" phase spans under
	// it. Nil — the default — records nothing at zero cost.
	Trace *telemetry.Span
}

// TraceEntry is one recorded DRAM transaction.
type TraceEntry struct {
	Arrive int64
	Done   int64
	Addr   int64
	Write  bool
}

func (o *Options) defaults() {
	if o.WordBytes <= 0 {
		o.WordBytes = 4
	}
	if o.LineBytes <= 0 {
		o.LineBytes = 64
	}
	if o.MaxRequestsPerCycle <= 0 {
		o.MaxRequestsPerCycle = 1
	}
	if o.StreamWindowWords <= 0 {
		o.StreamWindowWords = 1 << 20
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 1 << 40
	}
}

// Result reports the outcome of replaying one schedule against the memory
// system.
type Result struct {
	ComputeCycles int64 // stall-free cycle count
	TotalCycles   int64 // with memory stalls
	StallCycles   int64 // TotalCycles − ComputeCycles
	ReadRequests  int64
	WriteRequests int64
	ReadWords     int64
	WriteWords    int64
	QueueFullCyc  int64 // cycles the producer was blocked on a full queue
	DRAM          dram.Stats
	// ThroughputMBps is DRAM traffic divided by the run's wall time at
	// the memory clock.
	ThroughputMBps float64
	// SkippedCycles counts the dead cycles the event engine jumped over
	// instead of ticking one by one (zero when the DRAM system runs with
	// dram.Options.ReferenceTicks).
	// Purely diagnostic: it does not affect any simulated statistic.
	SkippedCycles int64
	// Trace holds every transaction when Options.CollectTrace was set,
	// in issue order.
	Trace []TraceEntry
}

// StallFraction is StallCycles / TotalCycles.
func (r *Result) StallFraction() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.StallCycles) / float64(r.TotalCycles)
}

// Simulate replays the schedule against the DRAM system, modeling double
// buffering (fold f+1 prefetches while fold f computes), a finite stream
// staging window, finite DRAM request queues and real round-trip latencies.
// The accelerator and memory controller are clocked 1:1.
//
// The replay is event-driven: whenever a cycle can make no progress —
// waiting on stationary fills, stalled on stream data, counting down a
// drain phase, or blocked on a full request queue — the clock jumps
// straight to the next cycle anything can change (the DRAM controller's
// event horizon, the return of the last line the array waits for, or the
// end of the drain) instead of ticking through the dead cycles.
// A DRAM system built with dram.Options.ReferenceTicks (a test oracle)
// turns the jumps into per-cycle ticks; both modes produce identical
// Results.
//
// ctx is checked before the first request and at every fold boundary; a
// cancelled or expired context ends the replay with ctx.Err().
func Simulate(ctx context.Context, sched *Schedule, sys *dram.System, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts.defaults()
	skippedBase := sys.SkippedCycles()
	nFolds := sched.NumFolds()
	res := &Result{ComputeCycles: sched.TotalCycles()}
	// One pass over the fold view: the traffic totals, and the largest
	// consume batch, which the staging window must cover.
	var f Fold
	var maxRate int64
	for i := 0; i < nFolds; i++ {
		sched.Fold(i, &f)
		maxRate = max(maxRate, f.ConsumeRate)
		res.ReadWords += f.StationaryWords() + f.StreamWords()
		res.WriteWords += f.WriteWords()
	}
	// Every fold runs the same pipeline: a streaming phase, and fill plus
	// drain around it.
	streamCycles := f.StreamCycles
	fillDrainCycles := max(f.ComputeCycles-f.StreamCycles, 0)
	// The staging window must cover at least one consume batch plus one
	// in-flight line, or the producer/consumer pair livelocks.
	lineWordsMin := int64(opts.LineBytes / opts.WordBytes)
	if lineWordsMin < 1 {
		lineWordsMin = 1
	}
	if floor := 2*maxRate + 2*lineWordsMin; opts.StreamWindowWords < floor {
		opts.StreamWindowWords = floor
	}

	// Per-fold request lists, materialized lazily: only the folds between
	// the write drain cursor and the prefetch horizon (cf+1) are live, so
	// schedules with hundreds of thousands of folds stay cheap.
	type foldReqs struct {
		stat   []dram.Request
		stream []dram.Request
		// streamCum[i] is cumulative stream words after line i.
		streamCum []int64
		writes    []dram.Request
		// The fold's stream volume and consume batch, kept while it is
		// live so the compute loop need not derive the fold again.
		streamWords, consumeRate int64
		live                     bool
	}
	folds := make([]foldReqs, nFolds)
	var lineBuf []int64

	// Backing-array pools: released folds donate their request and
	// cumulative-word arrays to the next materialize, so the replay's
	// steady state allocates nothing per fold. Read-request arrays are
	// safe to recycle as soon as the fold retires (a read leaves the
	// controller queue when its column command issues, which fold
	// completion implies); write arrays may still be referenced by queued
	// posted writes, so they sit in retiredWrites until every entry has
	// issued (Done > 0).
	var reqFree [][]dram.Request
	var cumFree [][]int64
	var retiredWrites [][]dram.Request
	// newReqs builds the requests for one span list, sizing the array once:
	// the lines are listed first, then copied into a pooled array with room
	// for all of them, or a new one of exactly that length.
	newReqs := func(spans []Span, write bool) []dram.Request {
		lineBuf = lineBuf[:0]
		for _, sp := range spans {
			lineBuf = sp.Lines(lineBuf, int64(opts.WordBytes), int64(opts.LineBytes))
		}
		reqs := takeFit(&reqFree, len(lineBuf))
		for i, addr := range lineBuf {
			reqs[i] = dram.Request{Addr: addr, Write: write}
		}
		return reqs
	}
	materialize := func(i int) *foldReqs {
		fr := &folds[i]
		if fr.live {
			return fr
		}
		sched.Fold(i, &f)
		fr.stat = newReqs(f.Stationary, false)
		fr.stream = newReqs(f.Stream, false)
		// Distribute the fold's stream words evenly over its lines
		// (boundary-straddling lines mean lines × lineWords overcounts;
		// the final line must land exactly on StreamWords so the fold
		// cannot complete before every line has been issued and served).
		total := f.StreamWords()
		fr.streamWords, fr.consumeRate = total, f.ConsumeRate
		n := int64(len(fr.stream))
		fr.streamCum = takeFit(&cumFree, len(fr.stream))
		for j := int64(0); j < n; j++ {
			fr.streamCum[j] = total * (j + 1) / n
		}
		fr.writes = newReqs(f.Writes, true)
		fr.live = true
		return fr
	}
	release := func(i int) {
		if opts.CollectTrace {
			return // keep everything for the trace
		}
		fr := &folds[i]
		if cap(fr.stat) > 0 {
			reqFree = append(reqFree, fr.stat)
		}
		if cap(fr.stream) > 0 {
			reqFree = append(reqFree, fr.stream)
		}
		if cap(fr.streamCum) > 0 {
			cumFree = append(cumFree, fr.streamCum)
		}
		if cap(fr.writes) > 0 {
			retiredWrites = append(retiredWrites, fr.writes)
		}
		// Reclaim retired write arrays oldest-first once fully issued.
		for len(retiredWrites) > 0 {
			ws := retiredWrites[0]
			done := true
			for j := range ws {
				if ws[j].Done == 0 {
					done = false
					break
				}
			}
			if !done {
				break
			}
			reqFree = append(reqFree, ws)
			retiredWrites = retiredWrites[1:]
		}
		*fr = foldReqs{}
	}

	// Producer state: in-order issue across folds, stationary→stream,
	// with writes of completed folds interleaved ahead of future reads.
	issueFold, statIdx, streamIdx := 0, 0, 0
	writeFold, writeIdx := 0, 0

	// Consumer (compute) state.
	cf := 0                    // fold being computed
	started := false           // fold cf started?
	statDone := 0              // completed stationary requests of fold cf
	streamAvail := 0           // stream lines of cf whose data has returned
	consumedWords := int64(0)  // stream words consumed by the array in cf
	curStreamTotal := int64(0) // fold cf's stream words, cached while started
	streamPhaseLeft := int64(0)
	drainLeft := int64(0)
	// Window tracking: unconsumed issued stream words of the current and
	// next fold.
	issuedStreamWords := int64(0)

	// WS/IS outputs stream out of the array continuously; OS outputs
	// drain once at the end of the fold.
	pacedWrites := sched.Dataflow != config.OutputStationary

	engine := "event"
	if sys.Opts.ReferenceTicks {
		engine = "reference"
	}
	stream := opts.Trace.Child("sram.stream", "phase")
	stream.SetAttr("engine", engine)
	stream.SetAttr("folds", nFolds)

	now := int64(0)
	// nextRequest returns the request the producer offers next, in
	// priority order: writes of finished folds (they must leave the
	// staging buffers), then — for WS/IS, whose outputs stream out of the
	// array continuously — the current fold's outputs paced to the stream,
	// then reads in order up to the prefetch horizon (cf+1). It returns
	// nil when the producer has nothing to offer until the array consumes
	// more. Stepping past fully issued folds on the way changes nothing
	// the replay can observe.
	nextRequest := func() (*dram.Request, reqKind) {
		for writeFold < cf {
			wr := materialize(writeFold)
			if writeIdx < len(wr.writes) {
				return &wr.writes[writeIdx], drainWrite
			}
			release(writeFold)
			writeFold++
			writeIdx = 0
		}
		if pacedWrites && writeFold == cf && started {
			fw := materialize(cf)
			if writeIdx < pacedTarget(len(fw.writes), consumedWords, curStreamTotal) {
				return &fw.writes[writeIdx], pacedWrite
			}
		}
		for issueFold < nFolds && issueFold <= cf+1 {
			fr := materialize(issueFold)
			if statIdx < len(fr.stat) {
				return &fr.stat[statIdx], statRead
			}
			if streamIdx < len(fr.stream) {
				if issuedStreamWords-consumedWordsIfCurrent(issueFold, cf, consumedWords) >= opts.StreamWindowWords {
					return nil, 0 // staging window full
				}
				return &fr.stream[streamIdx], streamRead
			}
			// Fold fully issued; move to the next.
			issueFold++
			statIdx, streamIdx = 0, 0
		}
		return nil, 0
	}
	// blocked is the request a full queue last refused. No queue slot can
	// free before the controller's next event, so until blockedUntil — the
	// controller horizon the replay saw when it last jumped while refused —
	// the producer counts it refused again without asking the controller.
	var blocked *dram.Request
	var blockedUntil int64
	// offer hands rq to the controller at cycle now; every refusal counts
	// toward QueueFullCyc, as in the per-cycle reference loop.
	offer := func(rq *dram.Request) bool {
		if rq != blocked || now >= blockedUntil {
			rq.Arrive = now
			if sys.Enqueue(rq) {
				return true
			}
			blocked, blockedUntil = rq, now
		}
		res.QueueFullCyc++
		return false
	}
	// advanceTo moves the accelerator clock and the DRAM system — clocked
	// 1:1 — to cycle t.
	advanceTo := func(t int64) {
		sys.AdvanceTo(t)
		now = t
	}
	// wait advances over a stretch in which the array cannot progress
	// before cycle until (0: no known cycle). If the producer's next
	// request — as of the next cycle, after this cycle's issues and the
	// array's update — finds room, the producer gets the next cycle.
	// Otherwise nothing changes before the controller's next event or
	// until, and the clock jumps there: never past the abort budget (so
	// the MaxCycles check still fires), and by exactly one cycle under the
	// reference loop. A producer facing a full queue would have retried,
	// and failed, on every skipped cycle, so QueueFullCyc counts them in
	// closed form.
	wait := func(until int64) {
		rq, _ := nextRequest()
		if rq != nil && sys.CanEnqueue(rq.Addr) {
			advanceTo(now + 1)
			return
		}
		limit := opts.MaxCycles + 1
		if until > now && until < limit {
			limit = until
		}
		next, horizon := sys.AdvanceToEvent(limit)
		if rq != nil {
			res.QueueFullCyc += next - now - 1
			blocked, blockedUntil = rq, horizon
		}
		now = next
	}

	for cf < nFolds {
		if now > opts.MaxCycles {
			return nil, fmt.Errorf("sram: simulation exceeded %d cycles", opts.MaxCycles)
		}

		// 1) Issue requests; a full paced-write queue backs the array up
		// (writeBlocked).
		budget := opts.MaxRequestsPerCycle
		writeBlocked := false
		for budget > 0 {
			rq, kind := nextRequest()
			if rq == nil {
				break
			}
			if !offer(rq) {
				writeBlocked = kind == pacedWrite
				break
			}
			budget--
			switch kind {
			case drainWrite, pacedWrite:
				res.WriteRequests++
				writeIdx++
			case statRead:
				res.ReadRequests++
				statIdx++
			case streamRead:
				// Account issued words with the same per-line
				// distribution the consumer uses, so the window
				// comparison stays exact.
				cum := folds[issueFold].streamCum
				inc := cum[streamIdx]
				if streamIdx > 0 {
					inc -= cum[streamIdx-1]
				}
				issuedStreamWords += inc
				res.ReadRequests++
				streamIdx++
			}
		}

		// 2) Advance compute.
		fr := materialize(cf)
		if !started {
			// All stationary data must have returned.
			for statDone < len(fr.stat) && returned(&fr.stat[statDone], now) {
				statDone++
			}
			allIssued := issueFoldBeyondStationary(issueFold, cf, statIdx, len(fr.stat))
			if statDone < len(fr.stat) || !allIssued {
				// The fold starts when its last stationary line returns,
				// known once every line has been served.
				var waitDone int64
				if allIssued {
					waitDone = lastReturn(fr.stat[statDone:])
				}
				wait(waitDone)
				continue
			}
			started = true
			streamPhaseLeft = streamCycles
			drainLeft = fillDrainCycles
			consumedWords = 0
			curStreamTotal = fr.streamWords
			streamAvail = 0
		}
		// Stream phase: consume ConsumeRate words/cycle if the data is
		// here and the write path keeps up; otherwise stall until it is.
		if streamPhaseLeft > 0 {
			for streamAvail < len(fr.stream) && returned(&fr.stream[streamAvail], now) {
				streamAvail++
			}
			var availWords int64
			if streamAvail > 0 {
				availWords = fr.streamCum[streamAvail-1]
			}
			need := consumedWords + fr.consumeRate
			total := curStreamTotal
			if need > total {
				need = total
			}
			// Write back-pressure: the array can run only a bounded
			// number of un-retired output lines ahead.
			backlogged := false
			if pacedWrites && writeFold == cf {
				target := pacedTarget(len(fr.writes), consumedWords, total)
				backlogged = writeBlocked && target-writeIdx > writeBacklogLines
			}
			if !backlogged && (availWords >= need || streamAvail == len(fr.stream)) {
				consumedWords = need
				streamPhaseLeft--
				advanceTo(now + 1)
				continue
			}
			// Stall: waiting on the lines the next consume step needs —
			// it can run once the last of them returns — or, when
			// backlogged, on the controller freeing write slots.
			var waitDone int64
			if !backlogged {
				last := streamAvail
				for fr.streamCum[last] < need {
					last++
				}
				waitDone = lastReturn(fr.stream[streamAvail : last+1])
			}
			wait(waitDone)
			continue
		}
		if drainLeft > 0 {
			// Dead stretch unless the producer can issue: jump to the
			// drain's end or the controller's next event (which could
			// unblock the producer), whichever comes first.
			prev := now
			wait(now + drainLeft)
			drainLeft -= now - prev
			continue
		}
		// Fold complete: release its stream words from the window. If the
		// producer somehow still points into this fold, skip the rest of
		// its requests — the data is no longer needed (defensive; with
		// exact cum accounting completion implies full issue).
		if issueFold == cf {
			if n := len(fr.stream); streamIdx < n {
				already := int64(0)
				if streamIdx > 0 {
					already = fr.streamCum[streamIdx-1]
				}
				issuedStreamWords += fr.streamCum[n-1] - already
				streamIdx = n
			}
			issueFold++
			statIdx, streamIdx = 0, 0
		}
		if n := len(fr.stream); n > 0 {
			issuedStreamWords -= fr.streamCum[n-1]
		}
		if issuedStreamWords < 0 {
			issuedStreamWords = 0
		}
		cf++
		started = false
		statDone = 0
		if err := ctx.Err(); err != nil {
			stream.End()
			return nil, err
		}
	}
	stream.SetAttr("queue_full_cycles", res.QueueFullCyc)
	stream.End()

	// Flush remaining writes, jumping between controller events while the
	// queue stays full (the reference loop retries every cycle; neither
	// counts these toward QueueFullCyc).
	drain := opts.Trace.Child("sram.drain", "phase")
	for writeFold < len(folds) {
		wr := materialize(writeFold)
		if writeIdx >= len(wr.writes) {
			release(writeFold)
			writeFold++
			writeIdx = 0
			continue
		}
		rq := &wr.writes[writeIdx]
		rq.Arrive = now
		if sys.Enqueue(rq) {
			res.WriteRequests++
			writeIdx++
		} else {
			now, _ = sys.AdvanceToEvent(opts.MaxCycles + 1)
		}
	}
	if _, err := sys.RunUntilDrained(opts.MaxCycles); err != nil {
		drain.End()
		return nil, err
	}
	drain.End()

	res.TotalCycles = now
	res.StallCycles = res.TotalCycles - res.ComputeCycles
	if res.StallCycles < 0 {
		res.StallCycles = 0
	}
	if opts.CollectTrace {
		for i := range folds {
			for _, group := range [][]dram.Request{folds[i].stat, folds[i].stream, folds[i].writes} {
				for j := range group {
					rq := &group[j]
					res.Trace = append(res.Trace, TraceEntry{
						Arrive: rq.Arrive,
						Done:   rq.Done,
						Addr:   rq.Addr,
						Write:  rq.Write,
					})
				}
			}
		}
	}
	res.DRAM = sys.Stats()
	res.SkippedCycles = sys.SkippedCycles() - skippedBase
	bytes := float64(res.DRAM.Reads+res.DRAM.Writes) * float64(sys.Tech.BurstBytes())
	if secs := float64(res.DRAM.Cycles) / (sys.Tech.ClockMHz * 1e6); secs > 0 {
		res.ThroughputMBps = bytes / secs / 1e6
	}
	return res, nil
}

// writeBacklogLines is the output staging capacity in lines: the array may
// run this many un-retired output lines ahead of the write queue before the
// pipeline backs up.
const writeBacklogLines = 32

// pacedTarget returns how many of the fold's write lines should have been
// issued once `consumed` of `total` stream words are processed.
func pacedTarget(writes int, consumed, total int64) int {
	if total <= 0 {
		return writes
	}
	return int(int64(writes) * consumed / total)
}

// consumedWordsIfCurrent returns the consumed stream words when the issuing
// fold is the computing fold (window frees as the array consumes); prefetch
// for future folds gets no credit.
func consumedWordsIfCurrent(issueFold, cf int, consumed int64) int64 {
	if issueFold == cf {
		return consumed
	}
	return 0
}

// reqKind tells the producer's request sources apart.
type reqKind int

const (
	drainWrite reqKind = iota + 1 // output of a finished fold
	pacedWrite                    // output of the computing fold (WS/IS)
	statRead
	streamRead
)

// returned reports whether rq's data is back by cycle now.
func returned(rq *dram.Request, now int64) bool { return rq.Done > 0 && rq.Done <= now }

// lastReturn returns the cycle by which every request in reqs has returned,
// or 0 while any of them is still unserved (its return time unknown).
func lastReturn(reqs []dram.Request) int64 {
	var last int64
	for i := range reqs {
		if reqs[i].Done == 0 {
			return 0
		}
		last = max(last, reqs[i].Done)
	}
	return last
}

// takeFit removes and returns a pooled array with room for n elements, or
// makes one of exactly n.
func takeFit[T any](pool *[][]T, n int) []T {
	if n == 0 {
		return nil
	}
	for i, a := range *pool {
		if cap(a) >= n {
			last := len(*pool) - 1
			(*pool)[i] = (*pool)[last]
			*pool = (*pool)[:last]
			return a[:n]
		}
	}
	return make([]T, n)
}

// issueFoldBeyondStationary reports whether fold cf's stationary requests
// have all been issued.
func issueFoldBeyondStationary(issueFold, cf, statIdx, statLen int) bool {
	if issueFold > cf {
		return true
	}
	if issueFold == cf {
		return statIdx >= statLen
	}
	return false
}
