package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// endToEnd computes the untraced metrics a user of cobrad would see.
// Latencies come from successful operations only; a failed one counts
// in the result line's failed field instead.
//
// Every workload reports every metric:
//   - job_latency: computed requests, submit until the result is
//     fetched — a sweep on the sweep workloads, a point job on
//     point-jobs;
//   - hit_latency: requests the server answered from its result cache;
//   - sweep_latency: a sweep on the sweep workloads; on point-jobs one
//     client's pass over the four graphs, the client-side sweep;
//   - jobs_per_s: point jobs finished per second, a sweep's points and
//     cache-served requests included.
func endToEnd(t *timedRun, setup float64, u usage) map[string]metric {
	fresh, hits, sweeps := t.latencies()
	wall := t.wall.Seconds()
	return map[string]metric{
		"setup_s":             {setup, "s"},
		"sweep_latency_p50_s": {percentile(sweeps, 50).Seconds(), "s"},
		"samples_per_s":       {float64(t.samples) / wall, "1/s"},
		"jobs_per_s":          {float64(t.pointJobs) / wall, "1/s"},
		"job_latency_p50_ms":  {ms(percentile(fresh, 50)), "ms"},
		"job_latency_p90_ms":  {ms(percentile(fresh, 90)), "ms"},
		"hit_latency_p50_ms":  {ms(percentile(hits, 50)), "ms"},
		"hit_latency_p90_ms":  {ms(percentile(hits, 90)), "ms"},
		"cpu_ms_per_op":       {ms(u.cpu) / float64(len(t.ops)), "ms"},
		"max_rss_mb":          {float64(u.maxRSSKiB) / 1024, "MiB"},
	}
}

// latencies splits successful operations into computed requests, cache
// hits and sweeps.
func (t *timedRun) latencies() (fresh, hits, sweeps []time.Duration) {
	type passKey struct{ client, pass int }
	passStart := map[passKey]time.Time{}
	passEnd := map[passKey]time.Time{}
	passFailed := map[passKey]bool{}
	for _, o := range t.ops {
		if o.op.job != nil {
			k := passKey{o.op.client, o.op.pass}
			if s, ok := passStart[k]; !ok || o.start.Before(s) {
				passStart[k] = o.start
			}
			if o.end.After(passEnd[k]) {
				passEnd[k] = o.end
			}
			if o.err != nil {
				passFailed[k] = true
			}
		}
		if o.err != nil {
			continue
		}
		switch {
		case o.op.repeat:
			hits = append(hits, o.latency())
		default:
			fresh = append(fresh, o.latency())
			if o.op.sweep != nil {
				sweeps = append(sweeps, o.latency())
			}
		}
	}
	for k, s := range passStart {
		if !passFailed[k] {
			sweeps = append(sweeps, passEnd[k].Sub(s))
		}
	}
	return fresh, hits, sweeps
}

func (t *timedRun) sampleCounts() map[string]int {
	fresh, hits, sweeps := t.latencies()
	return map[string]int{"job_latency": len(fresh), "hit_latency": len(hits), "sweep_latency": len(sweeps)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile interpolates linearly between the closest ranks; an empty
// sample reads zero.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

func median(xs []float64) float64 {
	d := make([]time.Duration, len(xs))
	for i, x := range xs {
		d[i] = time.Duration(x * float64(time.Second))
	}
	return percentile(d, 50).Seconds()
}

// usage is the process's CPU time and peak resident memory.
type usage struct {
	cpu       time.Duration
	maxRSSKiB int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKiB: ru.Maxrss,
	}
}

// sub is the CPU spent between two readings, with the later peak.
func (u usage) sub(before usage) usage {
	return usage{cpu: u.cpu - before.cpu, maxRSSKiB: u.maxRSSKiB}
}
