package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// opTimeout is how long a push may take before it counts as failed.
const opTimeout = 5 * time.Second

// replyStats accumulates what the verified replies report about the server.
type replyStats struct {
	replies    int
	rawBytes   int64
	compressed int64
	energy     float64 // sum of Measure.EnergyPerByte
	contention float64 // sum of Measure.Contention
	violated   int
}

func (a *replyStats) add(b replyStats) {
	a.replies += b.replies
	a.rawBytes += b.rawBytes
	a.compressed += b.compressed
	a.energy += b.energy
	a.contention += b.contention
	a.violated += b.violated
}

// sender drives one served session, one push at a time: the protocol is
// strict request/response per session. Push k sends pool payload k mod the
// pool size, so the session's push ordinal — which the server records as the
// batch index in segment files — names the payload.
type sender struct {
	cs          *serve.ClientSession
	pool        *pool
	k           int
	sampleEvery int
	res         serve.Result
	stats       replyStats
}

// send pushes the session's next pool payload and returns the raw bytes
// acknowledged; any error — transport, server error or oracle mismatch —
// makes the push a failed op.
func (s *sender) send() (int, error) {
	i := s.k % len(s.pool.entries)
	s.k++
	e := &s.pool.entries[i]
	if err := s.cs.PushReuse(e.raw, &s.res); err != nil {
		return 0, err
	}
	if err := verifyResult(&s.res, e.want); err != nil {
		return 0, fmt.Errorf("%s payload %d: %w", s.pool.pair.alg, i, err)
	}
	// Byte identity with the oracle already implies decodability (every
	// expected result round-trips at set-up); a sample still decodes the
	// served bytes themselves.
	if s.k%s.sampleEvery == 0 {
		got, err := s.res.Decode()
		if err != nil || !bytes.Equal(got, e.raw) {
			return 0, fmt.Errorf("%s payload %d: served result does not decode to its payload (%v)", s.pool.pair.alg, i, err)
		}
	}
	s.stats.replies++
	s.stats.rawBytes += int64(len(e.raw))
	s.stats.compressed += int64(compressedBytes(&s.res))
	s.stats.energy += s.res.Measure.EnergyPerByte
	s.stats.contention += s.res.Measure.Contention
	if s.res.Measure.Violated {
		s.stats.violated++
	}
	return len(e.raw), nil
}

// phaseResult is what one load phase measured on the generator side.
type phaseResult struct {
	ops, failed int64
	// bytes is raw input acknowledged and verified.
	bytes int64
	wall  time.Duration
	// latMS is per-push latency in ms: send→reply in the closed loop,
	// due→reply in the paced loop.
	latMS []float64
	// atS is each latency sample's offset from the phase start in seconds:
	// its send time in the closed loop, its due time in the paced loop.
	atS []float64
	// who is each latency sample's sender index.
	who []int
	// lateMS is, in the paced loop, how long after its due time a push was
	// sent although its session was idle: the generator's own lag.
	lateMS []float64
	errs   []error
}

func (p *phaseResult) merge(o *phaseResult) {
	p.ops += o.ops
	p.failed += o.failed
	p.bytes += o.bytes
	p.latMS = append(p.latMS, o.latMS...)
	p.atS = append(p.atS, o.atS...)
	p.who = append(p.who, o.who...)
	p.lateMS = append(p.lateMS, o.lateMS...)
	if len(p.errs) < 8 {
		p.errs = append(p.errs, o.errs...)
	}
}

// record accounts one finished push of sender who, whose latency is timed
// from at, at seconds into the phase.
func (p *phaseResult) record(who, n int, err error, lat time.Duration, at float64) {
	p.ops++
	if err == nil && lat > opTimeout {
		err = fmt.Errorf("push timed out after %v", lat)
	}
	if err != nil {
		p.failed++
		if len(p.errs) < 8 {
			p.errs = append(p.errs, err)
		}
		return
	}
	p.bytes += int64(n)
	p.latMS = append(p.latMS, float64(lat)/float64(time.Millisecond))
	p.atS = append(p.atS, at)
	p.who = append(p.who, who)
}

// closedLoop runs every sender back to back for d: each session sends again
// as soon as its reply arrives, so the window of in-flight pushes is the
// session count. The phase ends when the last push started before the
// deadline has been answered. Verified bytes are also added to progress as
// they complete, for a sampler watching the phase.
func closedLoop(ss []*sender, d time.Duration, progress *atomic.Int64) phaseResult {
	var (
		mu  sync.Mutex
		out phaseResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			var local phaseResult
			for time.Now().Before(deadline) {
				t0 := time.Now()
				n, err := s.send()
				local.record(i, n, err, time.Since(t0), t0.Sub(start).Seconds())
				if err == nil {
					progress.Add(int64(n))
				}
			}
			mu.Lock()
			out.merge(&local)
			mu.Unlock()
		}(i, s)
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// pacedSchedule is the open-loop arrival plan: session i's k'th push is due
// at start + offsets[i] + k*period.
type pacedSchedule struct {
	period  time.Duration
	offsets []time.Duration
}

// newPacedSchedule spreads rateBytesPerSec evenly over n sessions pushing
// batchBytes each. The sessions' arrivals are staggered evenly across one
// period and the whole pattern is shifted by a seeded phase: independent
// random offsets would let two sessions' arrivals coincide in one run and not
// in the next, and that collision, not the program, would set the latency.
func newPacedSchedule(n, batchBytes int, rateBytesPerSec float64, seed int64) pacedSchedule {
	perSession := rateBytesPerSec / float64(n)
	period := time.Duration(float64(batchBytes) / perSession * float64(time.Second))
	shift := rand.New(rand.NewSource(seed)).Float64()
	offs := make([]time.Duration, n)
	for i := range offs {
		offs[i] = time.Duration((float64(i) + shift) / float64(n) * float64(period))
	}
	return pacedSchedule{period: period, offsets: offs}
}

// pacedLoop runs the open-loop phase: every push due before start+d is sent
// at its due time or, if its session is still busy, as soon as the session
// frees up. Latency runs from the due time, so a stall is charged to every
// push queued behind it, not only to the stalled one.
func pacedLoop(ss []*sender, sched pacedSchedule, d time.Duration) phaseResult {
	var (
		mu  sync.Mutex
		out phaseResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(d)
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *sender, first time.Time) {
			defer wg.Done()
			var local phaseResult
			for k := 0; ; k++ {
				due := first.Add(time.Duration(k) * sched.period)
				if !due.Before(end) {
					break
				}
				idle := false
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					idle = true
				}
				sent := time.Now()
				if idle {
					local.lateMS = append(local.lateMS, float64(sent.Sub(due))/float64(time.Millisecond))
				}
				n, err := s.send()
				local.record(i, n, err, time.Since(due), due.Sub(start).Seconds())
			}
			mu.Lock()
			out.merge(&local)
			mu.Unlock()
		}(i, s, start.Add(sched.offsets[i]))
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// shapeQuantile is a latency percentile that stays well defined when the
// workload mixes session shapes of very different cost: the q-quantile is
// taken per shape (shapeOf maps a sender to its shape), each as a median over
// windows, and the shapes' figures are averaged. A percentile of the pooled
// mixture would sit in the gap between the shapes' modes and jump with
// small shifts of either. only >= 0 restricts the figure to that one shape.
func shapeQuantile(p *phaseResult, shapeOf []int, window, q float64, minSamples, only int) float64 {
	atS := map[int][]float64{}
	lat := map[int][]float64{}
	for i, who := range p.who {
		sh := shapeOf[who]
		if only >= 0 && sh != only {
			continue
		}
		atS[sh] = append(atS[sh], p.atS[i])
		lat[sh] = append(lat[sh], p.latMS[i])
	}
	var per []float64
	for sh := range lat {
		per = append(per, windowQuantile(atS[sh], lat[sh], window, q, minSamples))
	}
	return mean(per)
}

// windowQuantile splits samples into consecutive windows of length window
// seconds by their offset atS, takes the q-quantile within each window that
// holds at least minSamples, and returns the median over those windows. A
// transient disturbance then moves one window's figure, not the run's.
func windowQuantile(atS, values []float64, window, q float64, minSamples int) float64 {
	return median(windowQuantiles(atS, values, window, q, minSamples))
}

// windowQuantiles is the per-window q-quantiles in window order.
func windowQuantiles(atS, values []float64, window, q float64, minSamples int) []float64 {
	byWindow := map[int][]float64{}
	last := 0
	for i, at := range atS {
		w := int(at / window)
		byWindow[w] = append(byWindow[w], values[i])
		last = max(last, w)
	}
	var per []float64
	for w := 0; w <= last; w++ {
		if v := byWindow[w]; len(v) >= minSamples {
			per = append(per, quantile(sortedCopy(v), q))
		}
	}
	return per
}
