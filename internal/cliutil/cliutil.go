// Package cliutil holds the flag handling shared by the repo's command
// drivers (mcc, ipra-bench, ipra-analyze, mvm): parallelism (-j), verbose
// diagnostics (-v), pprof capture (-cpuprofile, -memprofile), and build
// telemetry (-trace, -report). Each tool registers one Common on its flag
// set, calls Start after parsing, threads Context into the library, and
// calls Finish on the way out; the artifacts land wherever the flags
// pointed without any per-tool plumbing.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ipra"
	"ipra/internal/telemetry"
)

// Common is the shared flag block of one command invocation.
type Common struct {
	// Jobs is the -j value: 0 = one worker per CPU, 1 = sequential.
	Jobs int
	// Verbose is the -v value; each tool decides what extra output it
	// unlocks (analysis reports, incremental reuse, ...).
	Verbose bool
	// Verify is the -verify value: run the internal/verify invariant
	// checker over the program analyzer's output and fail on violations.
	Verify bool

	tool       string
	cpuProf    string
	memProf    string
	tracePath  string
	reportPath string

	tracer  *telemetry.Tracer
	cpuFile *os.File
}

// New returns a Common labelled with the tool name (used in error
// messages).
func New(tool string) *Common { return &Common{tool: tool} }

// Register installs the shared flags on fs.
func (c *Common) Register(fs *flag.FlagSet) {
	fs.IntVar(&c.Jobs, "j", 0, "parallel jobs (0 = one per CPU, 1 = sequential)")
	fs.BoolVar(&c.Verbose, "v", false, "verbose diagnostic output")
	fs.BoolVar(&c.Verify, "verify", false, "check the analyzer's output against the paper's allocation invariants")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.memProf, "memprofile", "", "write a heap profile at exit to this file")
	fs.StringVar(&c.tracePath, "trace", "", "write a Chrome trace-event JSON build trace to this file (chrome://tracing, Perfetto)")
	fs.StringVar(&c.reportPath, "report", "", "write a machine-readable JSON build report to this file")
}

// Start begins whatever the parsed flags requested up front: the CPU
// profile, and the telemetry tracer when -trace or -report was given.
// Pair it with Finish.
func (c *Common) Start() error {
	if c.tracePath != "" || c.reportPath != "" {
		c.tracer = telemetry.New()
	}
	if c.cpuProf != "" {
		f, err := os.Create(c.cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		c.cpuFile = f
	}
	return nil
}

// Tracer returns the run's tracer, nil unless -trace or -report was
// given.
func (c *Common) Tracer() *telemetry.Tracer { return c.tracer }

// Context attaches the run's tracer (if any) to parent. Library calls
// made with the returned context record spans and counters; without
// -trace/-report it returns parent unchanged.
func (c *Common) Context(parent context.Context) context.Context {
	if c.tracer == nil {
		return parent
	}
	return telemetry.WithTracer(parent, c.tracer)
}

// Finish writes everything the parsed flags requested at exit: it stops
// the CPU profile, captures the heap profile, and exports the telemetry
// trace and report. Safe to call when none were requested.
func (c *Common) Finish() error {
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		c.cpuFile.Close()
		c.cpuFile = nil
	}
	if c.memProf != "" {
		f, err := os.Create(c.memProf)
		if err != nil {
			return err
		}
		runtime.GC()
		werr := pprof.WriteHeapProfile(f)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
	}
	if c.tracePath != "" {
		if err := writeFileWith(c.tracePath, c.tracer.WriteChromeTrace); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if c.reportPath != "" {
		if err := writeFileWith(c.reportPath, c.tracer.Report().WriteJSON); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	return nil
}

// writeFileWith streams one export function into a freshly created file.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// BuildFlags is the shared whole-program-build flag block: configuration
// preset selection, training budget, and executable output path. mcc's
// incremental and remote modes share this one block and the build daemon
// registers its training half, so the preset table, defaults, and help
// text can never drift between tools (the preset list itself lives in the
// ipra registry; nothing here hand-maintains a copy).
type BuildFlags struct {
	// ConfigName is the -config value: L2 or Table 4 column A-F.
	ConfigName string
	// TrainInstrs is the -train-instrs value: the instruction budget of
	// the training run of profiled configurations (B, F).
	TrainInstrs uint64
	// ExePath is the -exe value; each tool defines its own default.
	ExePath string
}

// RegisterBuild installs the shared build flags on fs.
func (b *BuildFlags) RegisterBuild(fs *flag.FlagSet) {
	fs.StringVar(&b.ConfigName, "config", "C", "build configuration: L2 or Table 4 column A-F ("+strings.Join(ipra.PresetNames(), ", ")+")")
	b.RegisterTraining(fs)
	fs.StringVar(&b.ExePath, "exe", "", "executable output path")
}

// RegisterTraining installs only -train-instrs — for tools (the build
// daemon) that never pick a configuration themselves but still need the
// shared training-budget default.
func (b *BuildFlags) RegisterTraining(fs *flag.FlagSet) {
	fs.Uint64Var(&b.TrainInstrs, "train-instrs", 100_000_000, "instruction budget for the training run of profiled configurations (B, F)")
}

// Config resolves the -config preset from the ipra registry.
func (b *BuildFlags) Config() (ipra.Config, error) {
	return ipra.PresetByName(b.ConfigName)
}

// Fatal prints the error prefixed with the tool name and exits 1.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// Fatal prints the error prefixed with this Common's tool name and
// exits 1.
func (c *Common) Fatal(err error) { Fatal(c.tool, err) }
