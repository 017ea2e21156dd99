// Command perfbench is the end-to-end benchmark of the networked event
// system. It launches real cmd/broker processes on loopback, drives them
// from this single load-generator process, checks every delivery against
// a reference oracle, and prints the metrics named in BENCHMARK.json; the
// last line of its output is one JSON object.
//
//	perfbench -broker <cmd/broker binary> -work <dir> -rates alerts=4000,chain=20000,catchup=20000 \
//	    --workload alerts --seed 1 --seconds 20 --trace 0
//
// run.sh builds both binaries from source and runs this command. See
// README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// endToEnd and perLayer are the metrics BENCHMARK.json declares, with
// their units: the untraced run reports the first set, the traced run the
// second.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sat_eps", "1/s"},
	{"p50_us", "us"},
	{"cpu_us_per_ev", "us"},
	{"rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"index.match_ns", "ns"},
	{"index.match_p99_ns", "ns"},
	{"index.hits_per_ev", "count"},
	{"filter.match_ns", "ns"},
	{"index.insert_ns", "ns"},
	{"index.remove_ns", "ns"},
	{"routing.subscribe_ns", "ns"},
	{"peering.subscribe_ns", "ns"},
	{"event.encode_ns", "ns"},
	{"event.decode_ns", "ns"},
	{"event.bytes", "B"},
	{"transport.write_ns", "ns"},
	{"transport.read_ns", "ns"},
	{"transport.frame_bytes", "B"},
	{"peering.match_links_ns", "ns"},
	{"flow.queue_ns", "ns"},
	{"flow.credit_waits_per_kev", "count"},
	{"flow.stalls", "count"},
	{"flow.queue_hwm", "count"},
	{"broker.syscw_per_ev", "count"},
	{"broker.syscr_per_ev", "count"},
	{"broker.batch_mean", "count"},
	{"broker.cpu_us_per_ev", "us"},
	{"broker.rss_mb", "MB"},
	{"store.append_ns", "ns"},
	{"store.sync_ms", "ms"},
	{"store.bytes_per_ev", "B"},
	{"store.replay_ns", "ns"},
	{"weaken.filter_ns", "ns"},
	{"routing.batch_ns", "ns"},
	{"loadgen.late_ms", "ms"},
	{"loadgen.publish_ns", "ns"},
	{"trace.layers_us_per_ev", "us"},
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: alerts, chain or catchup")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = report per-layer metrics from a traced replay")
	fs.StringVar(&cfg.brokerBin, "broker", "", "cmd/broker binary")
	work := fs.String("work", "", "directory for logs, stores and spans")
	rates := fs.String("rates", "", "open-loop publish rate per workload, e.g. alerts=4000,chain=20000")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	cfg.trace = *traceFlag == 1
	if cfg.brokerBin == "" || *work == "" {
		return 2, fmt.Errorf("-broker and -work are required")
	}
	for _, kv := range strings.Split(*rates, ",") {
		k, v, _ := strings.Cut(kv, "=")
		if k == cfg.workload {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				return 2, fmt.Errorf("bad rate %q", kv)
			}
			cfg.rate = f
		}
	}
	if cfg.rate == 0 {
		return 2, fmt.Errorf("no -rates entry for workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	// The generator keeps every delivery for the oracle; collect garbage
	// less often so its pauses disturb the schedule less.
	debug.SetGCPercent(400)

	in, err := genInputs(cfg.workload, cfg.seed)
	if err != nil {
		return 2, err
	}
	if cfg.dir, err = mkdirRun(*work, cfg.workload, cfg.seed); err != nil {
		return 2, err
	}
	defer os.RemoveAll(cfg.dir)
	r := newRunner(cfg, in)
	runErr := r.run()
	v := r.verify()
	r.teardown()
	if runErr != nil {
		r.invalid = append(r.invalid, runErr.Error())
	}
	if cfg.trace && runErr == nil {
		r.layerCounts()
		traceDir := filepath.Join(*work, "traces")
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return 1, err
		}
		if err := r.replay(traceDir); err != nil {
			r.invalid = append(r.invalid, "replay: "+err.Error())
		}
	}
	return r.print(v), nil
}

// layerCounts derives the per-layer counts of the untraced live run.
func (r *runner) layerCounts() {
	c := r.counts
	pub := float64(r.published())
	var syscw, syscr, cpuMax, hwmMax float64
	for i := range c.cpuUS {
		syscw += c.syscw[i]
		syscr += c.syscr[i]
		cpuMax = math.Max(cpuMax, c.cpuUS[i])
		hwmMax = math.Max(hwmMax, c.hwmMB[i])
	}
	set := func(name, unit string, v float64) { r.layer[name] = metric{v, unit, int(pub)} }
	set("flow.credit_waits_per_kev", "count", c.creditWaits/(pub/1000))
	set("flow.stalls", "count", c.stalls)
	set("flow.queue_hwm", "count", c.queueHWM)
	set("broker.syscw_per_ev", "count", syscw/pub)
	set("broker.syscr_per_ev", "count", syscr/pub)
	set("broker.batch_mean", "count", c.batchEvents/c.batches)
	set("broker.cpu_us_per_ev", "us", cpuMax/pub)
	set("broker.rss_mb", "MB", hwmMax)
	late, pubNs := r.timedPhases()
	set("loadgen.late_ms", "ms", quantile(sortedCopy(late), 0.99)/1e6)
	set("loadgen.publish_ns", "ns", mean(pubNs))
}

// timedPhases returns the generator's lateness and publish-call times on
// the phases where latency is measured.
func (r *runner) timedPhases() (late, pubNs []float64) {
	for _, p := range r.phases {
		if p.timed {
			late = append(late, p.late...)
			pubNs = append(pubNs, p.pubNs...)
		}
	}
	return late, pubNs
}

// print writes the report and the JSON result line; it returns the exit
// code.
func (r *runner) print(v verdict) int {
	cfg := r.cfg
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v rate=%g/s nproc=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.rate, runtime.NumCPU(), runtime.Version())
	fmt.Printf("phases: %s\n", r.phasesLine())
	fmt.Printf("setup_s runs: %v\n", r.setupS)

	// Generator validity: how late the open-loop schedule ran where
	// latency is measured. Elsewhere (catchup's return, alerts' churn) a
	// late publish is the brokers' backpressure, reported, not a fault.
	for _, p := range r.phases {
		if !p.timed && len(p.late) > 0 {
			fmt.Printf("%s phase: publishes ran up to %.1f ms behind schedule (latency not measured here)\n", p.name, sortedCopy(p.late)[len(p.late)-1]/1e6)
		}
	}
	if late, _ := r.timedPhases(); len(late) > 0 {
		s := sortedCopy(late)
		worst := s[len(s)-1]
		fmt.Printf("generator lateness: p50 %.1f us, p99 %.1f us, max %.2f ms (n=%d)\n",
			quantile(s, 0.5)/1e3, quantile(s, 0.99)/1e3, worst/1e6, len(s))
		if worst > float64(maxLate) {
			r.invalid = append(r.invalid, fmt.Sprintf("generator fell %.1f ms behind its schedule (bound %v)", worst/1e6, maxLate))
		}
	}
	if t, ok := pickTail(r.lat); ok {
		fmt.Printf("latency tail: p%g = %.1f us (n=%d, %d beyond)\n", t.q*100, t.value, t.n, t.beyond)
	}

	attempted := r.published() + v.Expected + r.conserved
	failed := r.pubErrs + v.failures() + r.broken
	fmt.Printf("oracle: expected %d, delivered %d, missing %d, duplicate %d, reordered %d, unexpected %d, backlog-late %d\n",
		v.Expected, v.Delivered, v.Missing, v.Duplicate, v.Reordered, v.Unexpected, v.BacklogLate)
	for _, line := range r.extra {
		fmt.Println(line)
	}
	fmt.Printf("%-26s %14.6g %-6s\n", "fail_frac", float64(failed)/float64(max(attempted, 1)),
		fmt.Sprintf("(%d of %d)", failed, attempted))

	names := endToEnd
	want := r.e2e
	if cfg.trace {
		names, want = perLayer, r.layer
	}
	// Every end-to-end metric this workload has, declared or not.
	var shown []string
	for k := range r.e2e {
		shown = append(shown, k)
	}
	sort.Strings(shown)
	for _, k := range shown {
		m := r.e2e[k]
		fmt.Printf("%-26s %14.6g %-6s n=%d\n", k, m.value, m.unit, m.n)
	}
	if cfg.trace {
		for _, d := range perLayer {
			if m, ok := r.layer[d.name]; ok {
				fmt.Printf("%-26s %14.6g %-6s n=%d\n", d.name, m.value, m.unit, m.n)
			}
		}
	}
	out := map[string]any{}
	for _, d := range names {
		m, ok := want[d.name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.invalid = append(r.invalid, "metric missing: "+d.name)
			continue
		}
		out[d.name] = map[string]any{"value": m.value, "unit": d.unit}
	}
	for _, msg := range r.invalid {
		fmt.Println("INVALID:", msg)
	}
	correct := failed == 0 && len(r.invalid) == 0
	if len(r.invalid) > 0 {
		out = map[string]any{}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
