// Command perfbench is the repository's benchmark. It drives the EMI
// design flow from outside, through each layer's public entry points,
// on one of three seeded workloads, checks every answer, and prints
// every metric by name and unit.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload explore-buck --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	explore-buck  NSGA-II over the paper's buck converter, all four objectives
//	scale-filter  generated parallel-branch filter boards: PEEC extraction + MNA
//	serve-mixed   HTTP traffic through a cluster router over two durable replicas
//
// With --trace 0 the run measures the end-to-end metrics untraced. With
// --trace 1 it measures the same workload twice, untraced and then
// traced, and reports per-layer metrics from the traced pass; the
// throughput difference between the passes is the tracing overhead.
//
// Output: one provenance line, one JSON record per metric (the ledger
// schema: name, unit, workload, value, samples, percentile), and as the
// last line the summary object {correct, attempted, failed, metrics}.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// record is one measured value in the ledger schema shared by every
// workload: what was measured, in which unit, on which workload, from
// how many samples, and (for percentiles) which one.
type record struct {
	Name       string  `json:"name"`
	Unit       string  `json:"unit"`
	Workload   string  `json:"workload"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
	Percentile float64 `json:"percentile,omitempty"`
}

// result is what one workload run hands back to main.
type result struct {
	attempted int
	failed    int      // ops that errored, were refused, or failed an answer check
	problems  []string // first few failure messages, for the log
	invalid   string   // non-empty: the run cannot stand as a measurement
	records   []record
}

// fail counts one failed op and keeps its message when there is room.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// add appends a record for a plain value.
func (r *result) add(name, unit string, v float64, samples int) {
	r.records = append(r.records, record{Name: name, Unit: unit, Value: v, Samples: samples})
}

// addPct appends a percentile record.
func (r *result) addPct(name, unit string, xs []float64, q float64) {
	r.records = append(r.records, record{Name: name, Unit: unit,
		Value: quantile(xs, q), Samples: len(xs), Percentile: 100 * q})
}

// options are the command-line parameters every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root (the working directory)
}

var workloads = map[string]func(options) (*result, error){
	"explore-buck": runExplore,
	"scale-filter": runScale,
	"serve-mixed":  runServe,
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload name")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measurement time per pass")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	opt.trace = traceFlag == 1
	run, ok := workloads[opt.workload]
	if !ok || opt.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0, --trace 0|1\n",
			strings.Join(sortedKeys(workloads), "|"))
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	opt.root = wd

	prov := provenance(opt)
	line, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", line)

	res, err := run(opt)
	if err != nil {
		fatal(err)
	}
	res.records = append(res.records, record{Name: "peak_rss_mb", Unit: "MB", Value: peakRSSMB(), Samples: 1})
	failedFrac := 0.0
	if res.attempted > 0 {
		failedFrac = float64(res.failed) / float64(res.attempted)
	}
	res.add("failed_frac", "frac", failedFrac, res.attempted)

	want := endToEnd
	if opt.trace {
		want = perLayer
	}
	metrics := map[string]map[string]any{}
	byName := map[string]record{}
	for _, rec := range res.records {
		rec.Workload = opt.workload
		byName[rec.Name] = rec
		b, _ := json.Marshal(rec)
		fmt.Printf("record %s\n", b)
	}
	for _, m := range want {
		rec, ok := byName[m.Name]
		if !ok {
			// A layer this workload never enters did no work.
			rec = record{Name: m.Name, Unit: m.Unit}
		}
		if math.IsNaN(rec.Value) || math.IsInf(rec.Value, 0) {
			rec.Value = 0
		}
		metrics[m.Name] = map[string]any{"value": rec.Value, "unit": m.Unit}
	}
	for _, p := range res.problems {
		fmt.Printf("failure %s\n", p)
	}
	if res.invalid != "" {
		fmt.Printf("invalid %s\n", res.invalid)
	}
	summary := map[string]any{
		"correct":   res.failed == 0 && res.invalid == "" && res.attempted > 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	}
	out, err := json.Marshal(summary)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// provenance records what produced a report: machine shape, runtime,
// the source it measured and the inputs it used.
func provenance(opt options) map[string]any {
	return map[string]any{
		"workload":           opt.workload,
		"seed":               opt.seed,
		"seconds":            opt.seconds,
		"trace":              opt.trace,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"engine_parallelism": runtime.GOMAXPROCS(0), // the benchmark leaves engine.SetMaxParallelism at its default
		"go":                 runtime.Version(),
		"commit":             gitCommit(opt.root),
		"source_sha256":      sourceDigest(opt.root),
	}
}

// gitCommit reads HEAD without running git; "unknown" outside a
// checkout with a .git directory.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(strings.TrimPrefix(ref, "ref: "))))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes go.mod and every Go file under internal/, so a
// report identifies the measured program even where no git metadata
// exists.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(rel))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if n, _ := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
