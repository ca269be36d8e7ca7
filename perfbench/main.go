// Command perfbench is the repository's end-to-end, layer-by-layer
// benchmark. It runs one named workload against the toolchain built from
// the same checkout and prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the end-to-end metrics are timed from outside the
// program: fresh mcc processes, an ipra-served daemon driven through
// served.Client, or fresh sweep processes. With -trace 1 the harness
// instead replays each build in process, one layer call at a time, and
// reports the per-layer metrics of BENCHMARK.json; the spans it records
// around those calls are written as a Chrome trace-event file.
//
// run.sh builds everything and passes -spec, -bin and -work; see
// README.md for the workloads, the metrics and the seeds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed used while writing a change; heldOutSeed is
// reserved for confirming a claim on inputs the change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// env is what every workload needs: the run's parameters and where the
// built tools and the scratch space are.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	bin     string // directory with mcc, ipra-served and perfbench
	work    string // scratch directory of this run, removed at exit
	state   string // directory kept across runs (count ledger, traces)
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	rows              []row
	counts            map[string]float64 // must repeat exactly per seed
}

// row is one line of the human-readable report.
type row struct {
	name  string
	value float64
	unit  string
	n     int
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, counts: map[string]float64{}}
}

// fail records a wrong or failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// report adds a line to the human-readable table.
func (r *result) report(name string, value float64, unit string, n int) {
	r.rows = append(r.rows, row{name, value, unit, n})
}

var workloads = map[string]func(context.Context, *env) (*result, error){
	"clean-large":   cleanLarge,
	"edit-large":    editLarge,
	"served-medium": servedMedium,
	"paper-suite":   paperSuite,
}

// spec is the part of BENCHMARK.json the harness checks its output against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		if err := sweepMain(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench sweep:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (%d is held out for confirming claims)", heldOutSeed))
		seconds  = flag.Int("seconds", 10, "length of the timed region")
		trace    = flag.Int("trace", 0, "1 replays builds in process and reports per-layer metrics")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition")
		bin      = flag.String("bin", "", "directory holding the built mcc, ipra-served and perfbench")
		work     = flag.String("work", "", "scratch root inside the checkout")
	)
	flag.Parse()
	correct, err := run(*workload, *seed, *seconds, *trace, *specPath, *bin, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(3)
	}
}

// run executes one workload and prints its report; it returns false when
// an output check failed.
func run(workload string, seed int64, seconds, trace int, specPath, bin, work string) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	fn := workloads[workload]
	listed := false
	for _, w := range sp.Workloads {
		listed = listed || w.Name == workload
	}
	if fn == nil || !listed {
		return false, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) || bin == "" || work == "" {
		return false, fmt.Errorf("need -seconds >= 1, -trace 0|1, -bin and -work")
	}
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, traced: trace == 1, bin: bin}
	e.state = filepath.Join(work, "state")
	e.work = filepath.Join(work, fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(e.state, 0o755); err != nil {
		return false, err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(e.work)

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := fn(ctx, e)
	if err != nil {
		return false, fmt.Errorf("%s: %w", workload, err)
	}
	want := sp.EndToEnd
	if e.traced {
		want = sp.PerLayer
	}
	if err := checkLedger(e, workload, res); err != nil {
		return false, err
	}

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)
	for _, r := range res.rows {
		fmt.Printf("  %-28s %14.4f %-10s n=%d\n", r.name, r.value, r.unit, r.n)
	}
	if res.attempted > 0 {
		fmt.Printf("  %-28s %14.4f %-10s n=%d\n", "fail_frac", float64(res.failed)/float64(res.attempted), "frac", res.attempted)
	}
	for _, p := range res.problems {
		fmt.Printf("  MISMATCH: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	var missing []string
	for _, m := range want {
		// A per-layer metric absent from a workload is a layer the
		// workload does not run: it reads 0 there.
		v, ok := res.metrics[m.Name]
		if !ok && !e.traced {
			missing = append(missing, m.Name)
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return false, fmt.Errorf("%s did not produce %s", workload, strings.Join(missing, ", "))
	}
	if out.Attempted < 1 {
		return false, fmt.Errorf("%s attempted no operation", workload)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return out.Correct, nil
}
