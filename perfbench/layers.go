package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/graphstore"
)

// depth orders the layers for attribution: each instant of an
// operation belongs to the deepest span of that operation open then,
// so a layer's self time is its spans' coverage minus the part deeper
// spans cover, and the shares of all layers and the unattributed rest
// sum to one. A lease wait ranks just above engine time and below all
// work: a job waiting on a peer's lease costs the operation only while
// nothing of it is computing, storing or talking to the coordinator.
var depth = map[string]int{
	layerService: 1, layerEngine: 2, layerKernel: 4, layerGraph: 5, layerStore: 6, layerCluster: 7,
}

func spanDepth(sp span) int {
	if sp.Kind == "wait" {
		return 3
	}
	return depth[sp.Layer]
}

// nodeStats is one node's engine and graph-store counters at a moment.
type nodeStats struct {
	id     string
	eng    engine.Metrics
	graphs graphstore.Stats
}

func (s *stack) stats() []nodeStats {
	all := append([]*node(nil), s.nodes...)
	if s.coord != nil {
		all = append(all, s.coord)
	}
	out := make([]nodeStats, len(all))
	for i, n := range all {
		out[i] = nodeStats{id: n.id, eng: n.eng.Metrics(), graphs: n.graphs.Stats()}
	}
	return out
}

// analyze turns the traced run's spans, job Status timestamps and
// counters into the per-layer metrics.
func analyze(s *stack, tr *tracer, t *timedRun) (map[string]metric, error) {
	a := &analysis{s: s, t: t, byFP: map[string]int{}, graphsOf: map[int][]string{}}
	a.index()
	computed, err := a.computedBy()
	if err != nil {
		return nil, err
	}
	a.jobSpans(tr, computed)
	a.assign(tr)
	return a.metrics(tr), nil
}

type analysis struct {
	s        *stack
	t        *timedRun
	byFP     map[string]int   // job fingerprint → the operation that computed it
	graphsOf map[int][]string // operation → graph specs its points resolve
	qwait    []time.Duration
	run      []time.Duration
}

// index maps every fingerprint a fresh operation computed — its own and
// its sweep's points — to that operation.
func (a *analysis) index() {
	first := a.s.nodes[0]
	for _, o := range a.t.ops {
		if o.err != nil || o.op.repeat {
			continue
		}
		a.byFP[o.status.Fingerprint] = o.op.id
		if o.op.job != nil {
			a.graphsOf[o.op.id] = []string{o.op.job.Graph}
			continue
		}
		for _, pt := range o.out.Points {
			a.graphsOf[o.op.id] = append(a.graphsOf[o.op.id], pt.Graph)
		}
		for _, id := range o.status.Children {
			if j, ok := first.eng.Job(id); ok {
				a.byFP[j.Fingerprint()] = o.op.id
			}
		}
	}
}

// computedBy reports which node ran each point: on the cluster the
// journal says; on a single node every fresh point job ran there.
func (a *analysis) computedBy() (map[string]string, error) {
	if a.s.coord == nil {
		return nil, nil
	}
	entries, err := a.s.coord.backend.Journal()
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, len(entries))
	for _, e := range entries {
		m[e.Key] = e.Node
	}
	return m, nil
}

// jobSpans derives engine spans from job Status timestamps: a job span
// from submission to finish and, for a point job, a run span from
// start to finish — kernel time where the node computed the point,
// engine time where it adopted a peer's result. The tracer has stopped
// recording, so they are appended directly.
func (a *analysis) jobSpans(tr *tracer, computed map[string]string) {
	for _, n := range a.s.nodes {
		for _, j := range n.eng.Jobs() {
			st := j.Snapshot()
			id, ok := a.byFP[st.Fingerprint]
			if !ok || st.CacheHit || !st.State.Terminal() {
				continue
			}
			tr.spans = append(tr.spans, span{Op: id, Node: n.id, Layer: layerEngine, Kind: "job", Name: st.Kind,
				Key: st.Fingerprint, Start: st.SubmittedAt.UnixNano(), End: st.FinishedAt.UnixNano()})
			if st.Kind == "sweep" {
				continue
			}
			layer, name := layerKernel, "run"
			if computed != nil && computed[st.Fingerprint] != n.id {
				layer, name = layerEngine, "adopt"
			}
			tr.spans = append(tr.spans, span{Op: id, Node: n.id, Layer: layer, Kind: "run", Name: name,
				Key: st.Fingerprint, Start: st.StartedAt.UnixNano(), End: st.FinishedAt.UnixNano()})
			if layer == layerKernel {
				a.qwait = append(a.qwait, st.StartedAt.Sub(st.SubmittedAt))
				a.run = append(a.run, st.FinishedAt.Sub(st.StartedAt))
			}
		}
	}
	for _, o := range a.t.ops {
		if o.op.repeat && o.err == nil {
			st := o.status
			tr.spans = append(tr.spans, span{Op: o.op.id, Node: a.s.nodes[0].id, Layer: layerEngine, Kind: "job", Name: st.Kind,
				Key: st.Fingerprint, Start: st.SubmittedAt.UnixNano(), End: st.FinishedAt.UnixNano()})
		}
	}
}

// assign attributes the recorded spans to operations: store and
// cluster calls by the content key they carry, cluster attempts by key
// or by the logical call they ran under, graph builds by the operation
// resolving that graph at the time.
func (a *analysis) assign(tr *tracer) {
	type callKey struct{ node, name string }
	calls := map[callKey][]span{}
	for _, sp := range tr.spans {
		if sp.Kind == "call" && sp.Key != "" {
			k := callKey{sp.Node, sp.Name}
			calls[k] = append(calls[k], sp)
		}
	}
	for _, cs := range calls {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	}
	// keyless attempts: the call they ran under names the key.
	under := map[string]string{"lease_acquire": "claim", "journal": "record_computed"}
	enclosing := func(sp span) string {
		cs := calls[callKey{sp.Node, under[sp.Name]}]
		i := sort.Search(len(cs), func(i int) bool { return cs[i].Start > sp.Start }) - 1
		if i >= 0 && cs[i].End >= sp.End {
			return cs[i].Key
		}
		return ""
	}
	for i := range tr.spans {
		sp := &tr.spans[i]
		if sp.Op >= 0 || sp.Kind == "job" || sp.Kind == "run" {
			continue
		}
		key := sp.Key
		if key == "" && sp.Kind == "rpc" && under[sp.Name] != "" {
			key = enclosing(*sp)
		}
		if id, ok := a.byFP[key]; ok && key != "" {
			sp.Op = id
			continue
		}
		if sp.Layer == layerGraph {
			sp.Op = a.buildOwner(*sp)
		}
	}
}

func (a *analysis) buildOwner(sp span) int {
	for _, o := range a.t.ops {
		if o.op.repeat || o.start.UnixNano() > sp.Start || o.end.UnixNano() < sp.Start {
			continue
		}
		for _, g := range a.graphsOf[o.op.id] {
			if g == sp.Key {
				return o.op.id
			}
		}
	}
	return -1
}

// attribute splits one operation's window among the layers of its
// spans; the rest is unattributed.
func attribute(spans []span, lo, hi int64) map[string]int64 {
	cuts := []int64{lo, hi}
	for _, sp := range spans {
		cuts = append(cuts, clamp(sp.Start, lo, hi), clamp(sp.End, lo, hi))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]int64{}
	for i := 1; i < len(cuts); i++ {
		from, to := cuts[i-1], cuts[i]
		if to == from {
			continue
		}
		best, layer := 0, ""
		for _, sp := range spans {
			if d := spanDepth(sp); sp.Start <= from && sp.End >= to && d > best {
				best, layer = d, sp.Layer
			}
		}
		out[layer] += to - from
	}
	return out
}

func clamp(x, lo, hi int64) int64 {
	return min(max(x, lo), hi)
}

// union is the total length of the spans' union inside [lo, hi].
func union(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, sp := range spans {
		a, b := clamp(sp.Start, lo, hi), clamp(sp.End, lo, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

func (a *analysis) metrics(tr *tracer) map[string]metric {
	t := a.t
	ops := float64(len(t.ops))
	perOp := func(x float64) float64 { return x / ops }

	byOp := map[int][]span{}
	var submit, result, get, put, build []time.Duration
	rpcs := map[string][]time.Duration{}
	var requests, respBytes, gets, getHits, puts, putBytes float64
	var claims, claimWins, clusterCalls, attempts, builds float64
	for _, sp := range tr.spans {
		if sp.Op >= 0 {
			byOp[sp.Op] = append(byOp[sp.Op], sp)
		}
		switch {
		case sp.Layer == layerService:
			requests++
			respBytes += float64(sp.Bytes)
			switch sp.Name {
			case "submit":
				submit = append(submit, sp.dur())
			case "result":
				result = append(result, sp.dur())
			}
		case sp.Layer == layerStore:
			if sp.Name == "get" {
				gets++
				get = append(get, sp.dur())
				if sp.OK {
					getHits++
				}
			} else {
				puts++
				put = append(put, sp.dur())
				putBytes += float64(sp.Bytes)
			}
			if sp.Node != "node" {
				clusterCalls++ // a runner's store is the coordinator's, over RPC
			}
		case sp.Layer == layerGraph:
			builds++
			build = append(build, sp.dur())
		case sp.Layer == layerCluster && sp.Kind == "call":
			clusterCalls++
			if sp.Name == "claim" {
				claims++
				if sp.OK {
					claimWins++
				}
			}
		case sp.Layer == layerCluster && sp.Kind == "rpc":
			rpcs[sp.Name] = append(rpcs[sp.Name], sp.dur())
			if !strings.HasPrefix(sp.Name, "nodes_") {
				attempts++
			}
		}
	}

	var wallSum int64
	layerTime := map[string]int64{}
	var overhead []time.Duration
	for _, o := range t.ops {
		if o.err != nil {
			continue
		}
		lo, hi := o.start.UnixNano(), o.end.UnixNano()
		wallSum += hi - lo
		for layer, d := range attribute(byOp[o.op.id], lo, hi) {
			layerTime[layer] += d
		}
		if o.op.repeat {
			continue
		}
		var runs []span
		for _, sp := range byOp[o.op.id] {
			if sp.Kind == "run" && sp.Node == a.s.nodes[0].id {
				runs = append(runs, sp)
			}
		}
		overhead = append(overhead, time.Duration(hi-lo-union(runs, lo, hi)))
	}
	share := func(layer string) float64 {
		if wallSum == 0 {
			return 0
		}
		return float64(layerTime[layer]) / float64(wallSum)
	}

	var rpcCount float64
	for _, d := range rpcs {
		rpcCount += float64(len(d))
	}
	points := 0.0
	var lag []time.Duration
	if a.s.coord != nil {
		for _, o := range t.ops {
			if !o.op.repeat && o.err == nil {
				points += float64(len(o.out.Points))
				if at, ok := tr.adopts[o.status.Fingerprint]; ok {
					lag = append(lag, time.Duration(at-tr.announce[o.status.Fingerprint]))
				}
			}
		}
	}
	var submitted, hits, jobs, leaseWaits, computed, memHits, memEntries, diskBytes float64
	for i, after := range t.after {
		before := t.before[i]
		submitted += float64(after.eng.Submitted - before.eng.Submitted)
		hits += float64(after.eng.CacheHits - before.eng.CacheHits)
		jobs += float64(after.eng.Jobs)
		memHits += float64(after.graphs.MemHits - before.graphs.MemHits)
		memEntries += float64(after.graphs.MemEntries)
		diskBytes += float64(after.graphs.DiskBytes - before.graphs.DiskBytes)
		if after.id != "coord" {
			leaseWaits += float64(after.eng.LeaseWaits - before.eng.LeaseWaits)
			computed += float64(after.eng.Computed - before.eng.Computed)
		}
	}

	attributed := 0.0
	for layer := range depth {
		attributed += share(layer)
	}
	kernelNs := float64(layerTime[layerKernel])
	m := map[string]metric{
		"service.requests_per_op":    {perOp(requests), "count"},
		"service.submit_ms_p50":      {ms(percentile(submit, 50)), "ms"},
		"service.result_ms_p50":      {ms(percentile(result, 50)), "ms"},
		"service.response_kb_per_op": {perOp(respBytes) / 1024, "KiB"},

		"engine.queue_wait_ms_p50": {ms(percentile(a.qwait, 50)), "ms"},
		"engine.run_ms_p50":        {ms(percentile(a.run, 50)), "ms"},
		"engine.overhead_ms_p50":   {ms(percentile(overhead, 50)), "ms"},
		"engine.cache_hit_ratio":   {ratio(hits, submitted), "ratio"},
		"engine.retained_jobs":     {jobs, "count"},

		"store.gets_per_op":   {perOp(gets), "count"},
		"store.get_ms_p50":    {ms(percentile(get, 50)), "ms"},
		"store.get_hit_ratio": {ratio(getHits, gets), "ratio"},
		"store.puts_per_op":   {perOp(puts), "count"},
		"store.put_ms_p50":    {ms(percentile(put, 50)), "ms"},
		"store.put_kb_per_op": {perOp(putBytes) / 1024, "KiB"},

		"graph.builds_per_op":           {perOp(builds), "count"},
		"graph.build_ms_p50":            {ms(percentile(build, 50)), "ms"},
		"graph.build_share":             {share(layerGraph), "ratio"},
		"graphstore.mem_hits_per_op":    {perOp(memHits), "count"},
		"graphstore.mem_entries":        {memEntries, "count"},
		"graphstore.artifact_kb_per_op": {perOp(diskBytes) / 1024, "KiB"},

		"kernel.samples_per_op": {perOp(float64(t.samples)), "count"},
		"kernel.rounds_per_op":  {perOp(float64(t.rounds)), "count"},
		"kernel.self_share":     {share(layerKernel), "ratio"},
		"kernel.ns_per_sample":  {ratio(kernelNs, float64(t.samples)), "ns"},

		"cluster.rpcs_per_point":           {ratio(rpcCount, points), "count"},
		"cluster.rpc.lease_acquire_ms_p50": {ms(percentile(rpcs["lease_acquire"], 50)), "ms"},
		"cluster.rpc.lease_renew_ms_p50":   {ms(percentile(rpcs["lease_renew"], 50)), "ms"},
		"cluster.rpc.lease_release_ms_p50": {ms(percentile(rpcs["lease_release"], 50)), "ms"},
		"cluster.rpc.result_get_ms_p50":    {ms(percentile(rpcs["result_get"], 50)), "ms"},
		"cluster.rpc.result_put_ms_p50":    {ms(percentile(rpcs["result_put"], 50)), "ms"},
		"cluster.rpc.journal_ms_p50":       {ms(percentile(rpcs["journal"], 50)), "ms"},
		"cluster.rpc.announcements_ms_p50": {ms(percentile(rpcs["announcements"], 50)), "ms"},
		"cluster.rpc_attempts_per_call":    {ratio(attempts, clusterCalls), "ratio"},
		"cluster.claim_win_ratio":          {ratio(claimWins, claims), "ratio"},
		"cluster.lease_waits_per_point":    {ratio(leaseWaits, points), "count"},
		"cluster.computed_per_point":       {ratio(computed, points), "ratio"},
		"cluster.adopt_lag_ms":             {ms(percentile(lag, 50)), "ms"},
		"unattributed_share":               {1 - attributed, "ratio"},
		"service.self_share":               {share(layerService), "ratio"},
		"engine.self_share":                {share(layerEngine), "ratio"},
		"store.self_share":                 {share(layerStore), "ratio"},
		"cluster.self_share":               {share(layerCluster), "ratio"},
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
