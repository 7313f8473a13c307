package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"clientres/perfbench/stats"
)

// outcome classifies one request.
type outcome uint8

const (
	outOK     outcome = iota
	outFailed         // transport error, non-2xx other than shed, or a wrong body
	outShed           // 503 or 429: the service refused the request
)

// sample is one request as the open-loop recorder saw it. Late is how long
// after its due time the request was sent; Lat runs from the due time to
// the end of the response, so a stall also charges every request it delays.
type sample struct {
	Late, Lat time.Duration
	Out       outcome
	Hit       bool // the service answered from its response cache
}

// dueOffset is when request k of an open-loop run at rate per second is
// due, measured from the run's start.
func dueOffset(k int, rate float64) time.Duration {
	return time.Duration(float64(k) * float64(time.Second) / rate)
}

// openLoop sends n requests at a fixed rate from conns workers, request k
// due at start+dueOffset(k, rate) whether or not earlier requests have
// finished. A worker that is still busy when its next request falls due
// sends it late; that lateness is recorded and counted in the latency.
func openLoop(rate float64, n, conns int, do func(k int) (outcome, bool)) []sample {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(dueOffset(k, rate))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				out, hit := do(k)
				samples[k] = sample{Late: sent.Sub(due), Lat: time.Since(due), Out: out, Hit: hit}
			}
		}()
	}
	wg.Wait()
	return samples
}

// rateSummary is the recorder's account of one fixed-rate step.
type rateSummary struct {
	Rate      float64 `json:"rate"`
	Sent      int     `json:"sent"`
	OK        int     `json:"ok"`
	Failed    int     `json:"failed"`
	Shed      int     `json:"shed"`
	OverLimit int     `json:"over_limit"` // answered correctly but over the limit
	Hits      int     `json:"hits"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	MaxMS     float64 `json:"max_ms"`
	LateP50MS float64 `json:"late_p50_ms"`
	LateP99MS float64 `json:"late_p99_ms"`
	LateMaxMS float64 `json:"late_max_ms"`
	Backlog   bool    `json:"backlog"`
}

// summarize reduces a step's samples. Percentiles are exact order
// statistics of the recorded durations (nanosecond resolution), so a 20%
// change in latency shows as a 20% change here. The backlog is growing
// when the last quarter of the step was sent later, at the median, than
// the first quarter by more than a quarter of the latency limit.
func summarize(rate float64, samples []sample, limit time.Duration) rateSummary {
	s := rateSummary{Rate: rate, Sent: len(samples)}
	lat := make([]float64, 0, len(samples))
	late := make([]float64, 0, len(samples))
	for _, x := range samples {
		switch x.Out {
		case outOK:
			s.OK++
		case outShed:
			s.Shed++
		default:
			s.Failed++
		}
		if x.Out == outOK && x.Lat > limit {
			s.OverLimit++ // answered, but too late
		}
		if x.Hit {
			s.Hits++
		}
		lat = append(lat, ms(x.Lat))
		late = append(late, ms(x.Late))
	}
	if len(samples) == 0 {
		return s
	}
	sl, sn := stats.Sorted(lat), stats.Sorted(late)
	s.P50MS, s.P99MS, s.MaxMS = stats.Percentile(sl, 0.5), stats.Percentile(sl, 0.99), sl[len(sl)-1]
	s.LateP50MS, s.LateP99MS, s.LateMaxMS = stats.Percentile(sn, 0.5), stats.Percentile(sn, 0.99), sn[len(sn)-1]
	q := len(late) / 4
	if q > 0 {
		first, last := stats.Median(late[:q]), stats.Median(late[len(late)-q:])
		s.Backlog = last-first > ms(limit)/4
	}
	return s
}

// meets reports whether a step sustained its rate: nothing failed or shed,
// the p99 latency is within the limit, and no backlog grew.
func (s rateSummary) meets(limit time.Duration) bool {
	return s.Failed == 0 && s.Shed == 0 && s.P99MS <= ms(limit) && !s.Backlog
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ladderRate is step k of the fixed rate ladder: base·1.05^k.
func ladderRate(base float64, k int) float64 { return base * math.Pow(1.05, float64(k)) }

// climbLadder finds the highest ladder step that meets the limit, trying
// steps coarse first (every coarse-th step) and then the fine steps between
// the last coarse pass and the first coarse failure. step runs one step and
// reports whether it met the limit. It returns the best passing step, or -1
// when even step 0 fails, and the steps tried in order.
func climbLadder(maxStep, coarse int, step func(k int) bool) (best int, tried []int) {
	best = -1
	fail := maxStep + 1
	for k := 0; k <= maxStep; k += coarse {
		tried = append(tried, k)
		if !step(k) {
			fail = k
			break
		}
		best = k
	}
	for k := best + 1; k < fail && k <= maxStep; k++ {
		if k%coarse == 0 {
			continue
		}
		tried = append(tried, k)
		if !step(k) {
			break
		}
		best = k
	}
	return best, tried
}
