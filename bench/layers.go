package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// traceEvent is the part of a Chrome trace event the layer metrics read.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Args map[string]any `json:"args"`
}

// layerOf maps a span to the layer it times.  The order of selfLayers is
// the nesting order: a layer's spans contain those of the layers after
// it.
func layerOf(ev traceEvent) string {
	switch ev.Cat {
	case "bench":
		switch ev.Name {
		case "Client.Analyze", "RunSuite", "Algorithm.Run":
			return "request"
		case "FoldSummary.Observe", "MeasureSummary", "CommTimeSummary", "CurveSim.Step":
			return "analysis"
		default:
			return "codec"
		}
	case "job", "store", "engine", "network":
		return ev.Cat
	}
	return ""
}

var selfLayers = []string{"request", "job", "store", "engine", "codec", "analysis", "network"}

// finishTrace checks the probe dropped nothing, writes the session's
// Chrome trace when asked, and derives the span-based per-layer metrics.
func (s *session) finishTrace(path string) error {
	if d := s.probe.Dropped(); d > 0 {
		return fmt.Errorf("the probe dropped %d events", d)
	}
	var buf bytes.Buffer
	if err := s.probe.WriteChromeTrace(&buf); err != nil {
		return err
	}
	if path != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return fmt.Errorf("reading back the trace: %w", err)
	}
	var steps, jobs []float64
	var routes int
	var engineMs, messages, barrierNs, computeMs, routeMs, hops float64
	bench := map[string]float64{} // ms per bench span name
	spans := map[string][]interval{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "C" && ev.Name == "barrier_wait_ns" {
			for _, v := range ev.Args {
				barrierNs += number(v)
			}
			continue
		}
		if ev.Ph != "X" {
			continue
		}
		ms := ev.Dur / 1e3
		switch ev.Cat {
		case "engine":
			steps = append(steps, ev.Dur)
			engineMs += ms
			messages += number(ev.Args["messages"])
		case "store":
			if ev.Name == "trace-compute" {
				computeMs += ms
			}
		case "job":
			jobs = append(jobs, ms)
		case "network":
			routes++
			routeMs += ms
			hops += number(ev.Args["total_hops"])
		case "bench":
			bench[ev.Name] += ms
		}
		if l := layerOf(ev); l != "" {
			spans[l] = append(spans[l], interval{ev.TS, ev.TS + ev.Dur})
		}
	}
	// A layer the workload does not reach records nothing, so the run
	// reports it as 0 from no samples rather than as a measured 0.
	if len(steps) > 0 {
		s.layer("core.engine_ms", engineMs)
		s.layer("core.supersteps", float64(len(steps)))
		s.layer("core.messages", messages)
		s.layer("core.superstep_us.p50", median(steps))
		s.layer("core.barrier_wait_ms", barrierNs/1e6)
		s.layer("core.trace_compute_ms", computeMs+bench["Algorithm.Run"])
	}
	if len(jobs) > 0 {
		s.layer("service.job_ms.p50", median(jobs))
	}
	if routes > 0 {
		s.layer("network.route_ms", routeMs)
		s.layer("network.hops", hops)
	}
	if _, ok := bench["CurveSim.Step"]; ok {
		s.layer("eval.fold_ms", bench["FoldSummary.Observe"]+bench["MeasureSummary"])
		s.layer("dbsp.commtime_ms", bench["CommTimeSummary"])
		s.layer("cachesim.step_ms", bench["CurveSim.Step"])
		s.layer("cachesim.accesses", s.acc["cachesim.accesses"])
	}
	for _, c := range codecNames {
		mb := s.acc[c+".bytes"] / 1e6
		if mb == 0 {
			continue
		}
		s.layer("codec."+c+"_encode_mb_s", mb/(bench["WriteStep "+c]/1e3))
		s.layer("codec."+c+"_decode_mb_s", mb/((bench["NewTraceSource "+c]+bench["TraceSource.Next "+c])/1e3))
		s.layer("codec."+c+"_bytes_per_msg", s.acc[c+".bytes"]/s.acc[c+".msgs"])
	}
	s.res.Self = selfTimes(spans)
	return nil
}

// number reads a JSON number out of a decoded args value.
func number(v any) float64 {
	f, _ := v.(float64)
	return f
}

// interval is a span's [start, end) in µs.
type interval struct{ lo, hi float64 }

// selfTimes returns each layer's self time (ms): the wall time during
// which one of its spans was open and no span of a layer nested inside
// it was.  Taking unions keeps concurrent spans from counting twice.
func selfTimes(spans map[string][]interval) map[string]float64 {
	out := map[string]float64{}
	for i, l := range selfLayers {
		if len(spans[l]) == 0 {
			continue
		}
		var inner []interval
		for _, m := range selfLayers[i+1:] {
			inner = append(inner, spans[m]...)
		}
		out[l] = (length(merge(spans[l])) - overlap(merge(spans[l]), merge(inner))) / 1e3
	}
	return out
}

// merge returns the union of ivs as sorted disjoint intervals.
func merge(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []interval
	for _, iv := range s {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

func length(ivs []interval) float64 {
	t := 0.0
	for _, iv := range ivs {
		t += iv.hi - iv.lo
	}
	return t
}

// overlap measures the intersection of two sorted disjoint interval sets.
func overlap(a, b []interval) float64 {
	t := 0.0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			t += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return t
}
