// Package ipra is the public interface to an interprocedural register
// allocation system reproducing Santhanam & Odnert, "Register Allocation
// Across Procedure and Module Boundaries" (PLDI 1990).
//
// The system compiles MiniC (a C subset) for PARV (a PA-RISC-flavoured
// virtual machine) using the paper's two-pass organization:
//
//  1. The compiler first phase parses each module, produces intermediate
//     code, and emits a per-procedure summary record.
//  2. The program analyzer builds the program call graph from the
//     summaries and computes register allocation directives: webs of
//     global variables colored onto callee-saves registers (global
//     variable promotion) and cluster register-usage sets (spill code
//     motion). The directives go into a program database.
//  3. The compiler second phase optimizes and generates code for each
//     module independently, consulting the program database.
//  4. The linker binds the objects; the PARV simulator executes the result
//     and reports cycles, memory references, and call-edge profiles.
//
// Build is the single entry point: it drives the whole pipeline over a
// source set under one Config, with functional options selecting
// profile-guided compilation (WithProfile), persistent incremental build
// state (WithBuildDir), and build-event telemetry (WithTelemetry). The
// named configurations of the paper's Table 4 come from the preset
// registry (PresetNames, PresetByName, MustPreset: "L2" plus columns
// "A".."F").
package ipra

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"ipra/internal/codegen"
	"ipra/internal/core"
	"ipra/internal/incremental"
	"ipra/internal/ir"
	"ipra/internal/irgen"
	"ipra/internal/minic/parser"
	"ipra/internal/minic/sem"
	"ipra/internal/opt"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/pipeline"
	"ipra/internal/summary"
	"ipra/internal/telemetry"
	"ipra/internal/verify"
)

// Source is one MiniC module (compilation unit): its name, e.g.
// "main.mc", and its source text. Module names within one build must be
// distinct.
type Source = incremental.Source

// Config selects a compilation strategy.
type Config struct {
	// Name labels the configuration in reports ("L2", "A".."F").
	Name string
	// UseAnalyzer enables the program analyzer; when false the program is
	// compiled with level-2 (intraprocedural) optimization only.
	UseAnalyzer bool
	// Analyzer configures the program analyzer when enabled.
	Analyzer core.Options
	// Strategy exists only for the perfbench replay harness, which reads
	// it; a later benchmark change removes it. Presets leave it empty.
	// The analyzer accepts "" and "priority" (the paper's coloring, its
	// only policy) and fails the build on any other value.
	Strategy string
	// WantProfile marks configurations that use dynamic call counts; the
	// caller must supply Profile or build with the WithProfile option.
	WantProfile bool
	// Profile supplies exact call counts collected from a prior run.
	Profile *parv.Profile
	// DataSize overrides the simulated data memory size (bytes).
	DataSize int32
	// Jobs bounds compiler parallelism: 0 uses one worker per CPU
	// (GOMAXPROCS), 1 forces the sequential path, higher values set the
	// pool size explicitly. Both compiler phases and the summary
	// computation are module-at-a-time and order-independent (§2, §4.3),
	// so the output is identical at every setting.
	Jobs int
}

// analyzerOptions resolves the analyzer options one compile passes to
// core.Analyze: the configured options plus the per-build profile, job
// bound, and Strategy field.
func (c Config) analyzerOptions() core.Options {
	o := c.Analyzer
	o.Profile = c.Profile
	o.Jobs = c.Jobs
	if c.Strategy != "" {
		o.Strategy = c.Strategy
	}
	return o
}

// presetBuilders is the configuration registry: one constructor per named
// preset — the level-2 baseline plus the paper's Table 4 columns, in
// table order. PresetNames, PresetByName, and MustPreset derive from this
// single table, so commands and harnesses never hand-maintain parallel
// preset lists.
var presetBuilders = []struct {
	name  string
	desc  string
	build func() Config
}{
	{"L2", "level-2 baseline: global optimization only, standard linkage", buildLevel2},
	{"A", "spill code motion only", buildConfigA},
	{"B", "spill code motion with profile information", buildConfigB},
	{"C", "spill motion plus 6-register web coloring", buildConfigC},
	{"D", "spill motion plus greedy coloring", buildConfigD},
	{"E", "spill motion plus blanket promotion of the 6 hottest globals", buildConfigE},
	{"F", "configuration C with profile information", buildConfigF},
}

func buildLevel2() Config {
	return Config{Name: "L2"}
}

func buildConfigA() Config {
	o := core.DefaultOptions()
	o.Promotion = core.PromoteNone
	return Config{Name: "A", UseAnalyzer: true, Analyzer: o}
}

func buildConfigB() Config {
	c := buildConfigA()
	c.Name = "B"
	c.WantProfile = true
	return c
}

func buildConfigC() Config {
	o := core.DefaultOptions()
	return Config{Name: "C", UseAnalyzer: true, Analyzer: o}
}

func buildConfigD() Config {
	o := core.DefaultOptions()
	o.Promotion = core.PromoteGreedy
	return Config{Name: "D", UseAnalyzer: true, Analyzer: o}
}

func buildConfigE() Config {
	o := core.DefaultOptions()
	o.Promotion = core.PromoteBlanket
	return Config{Name: "E", UseAnalyzer: true, Analyzer: o}
}

func buildConfigF() Config {
	c := buildConfigC()
	c.Name = "F"
	c.WantProfile = true
	return c
}

// PresetNames lists the preset names in registry (Table 4) order:
// L2, A, B, C, D, E, F.
func PresetNames() []string {
	names := make([]string, len(presetBuilders))
	for i, p := range presetBuilders {
		names[i] = p.name
	}
	return names
}

// PresetByName resolves a preset name case-insensitively.
func PresetByName(name string) (Config, error) {
	for _, p := range presetBuilders {
		if strings.EqualFold(p.name, name) {
			return p.build(), nil
		}
	}
	return Config{}, fmt.Errorf("unknown configuration %q (want %s)", name, strings.Join(PresetNames(), ", "))
}

// MustPreset is PresetByName for known-good literal names; it panics on
// an unknown name. Examples and tests use it where a resolution error
// could only mean a typo.
func MustPreset(name string) Config {
	cfg, err := PresetByName(name)
	if err != nil {
		panic(err)
	}
	return cfg
}

// Configs returns the paper's full configuration sweep, Table 4 order
// (the preset registry minus the L2 baseline).
func Configs() []Config {
	var out []Config
	for _, p := range presetBuilders {
		if p.name == "L2" {
			continue
		}
		out = append(out, p.build())
	}
	return out
}

// Program is a fully compiled and linked program plus the artifacts of
// each stage, for inspection and tests.
type Program struct {
	Config    Config
	Modules   []*ir.Module // phase-1 output (pre-optimization)
	Summaries []*summary.ModuleSummary
	Analysis  *core.Result // nil for Level2
	DB        *pdb.Database
	Objects   []*parv.Object
	Exe       *parv.Executable
}

// Phase1 runs the compiler first phase on one module: parse, check, and
// lower to intermediate code. Summary records are produced separately by
// Summaries (they want an optimized copy, see §6).
func Phase1(src Source) (*ir.Module, error) {
	file, err := parser.ParseFile(src.Name, src.Text)
	if err != nil {
		return nil, err
	}
	mod, err := sem.Check(file)
	if err != nil {
		return nil, err
	}
	irm, err := irgen.Generate(mod)
	if err != nil {
		return nil, err
	}
	return irm, nil
}

// Phase2 runs the compiler second phase on one module under a program
// database: apply the database's directives, optimize, and generate an
// object. It never mutates m. Modules compile independently and in any
// order (§4.3); linking their objects in source order reproduces Build's
// executable for the same database.
func Phase2(m *ir.Module, db *pdb.Database) (*parv.Object, error) {
	return phase2Module(context.Background(), m, db, eligibleMap(db))
}

// Summaries produces the summary file contents for each module, fanning
// the independent per-module work across CPUs. Following the prototype
// described in §6, the first phase optimizes scratch copies before
// summarizing: reference and call frequencies come from a copy without
// global promotion (counts must reflect raw accesses), while the
// callee-saves register estimate comes from a fully optimized copy,
// closer to the code phase 2 allocates.
func Summaries(mods []*ir.Module) []*summary.ModuleSummary {
	out, _ := pipeline.Map(0, mods, func(_ int, m *ir.Module) (*summary.ModuleSummary, error) {
		return summarizeModule(context.TODO(), m), nil
	})
	return out
}

// summarizeModule computes one module's summary record (see Summaries).
// It never mutates m: level 1 runs on one scratch clone and level 2 on a
// second. Under telemetry it records "level1", "summary" and "estimate"
// spans.
func summarizeModule(ctx context.Context, m *ir.Module) *summary.ModuleSummary {
	_, span := telemetry.StartSpan(ctx, "level1")
	scratch := m.Clone()
	for _, f := range scratch.Funcs {
		opt.Level1(f)
	}
	span.End()

	_, span = telemetry.StartSpan(ctx, "summary")
	ms := summary.SummarizeModule(scratch)
	span.End()

	// Refine the register-need estimates on a level-2-optimized copy
	// (module-local eligibility approximates what phase 2 will do). Level 2
	// must start from m, not from the level-1 scratch: its round limit
	// counts from unoptimized code, and the extra rounds can change the
	// estimate (TestSummarizeEstimateMatchesFreshLevel2).
	_, span = telemetry.StartSpan(ctx, "estimate")
	local := make(map[string]bool)
	for _, g := range m.Globals {
		if g.Scalar && g.Defined && !g.AddrTaken && g.Size <= 4 {
			local[g.Name] = true
		}
	}
	for i, f := range m.Clone().Funcs {
		opt.Level2(f, local, nil)
		ms.Procs[i].CalleeSavesNeeded = summary.EstimateCalleeSaves(f)
	}
	span.End()
	return ms
}

// phase1Fingerprint versions the phase-1 records of an incremental build
// directory. It must change whenever the parser, semantic analysis, IR
// generation, optimizer, or summary computation change meaning; no Config
// field reaches phase 1 today, so the configuration contributes nothing
// beyond this constant.
const phase1Fingerprint = "ipra/phase1+summary/v1"

// ResetPhase1Cache does nothing: Build keeps no phase-1 state between
// calls. It remains only because the perfbench harness calls it, and goes
// with the next benchmark change.
func ResetPhase1Cache() {}

// phase1Module produces one module's phase-1 output and summary. Under
// telemetry it runs as a "module" span with "frontend" and "summarize"
// children.
func phase1Module(ctx context.Context, src Source) (*ir.Module, *summary.ModuleSummary, error) {
	ctx, span := telemetry.StartSpan(ctx, "module")
	defer span.End()
	span.SetStr("module", src.Name)
	_, feSpan := telemetry.StartSpan(ctx, "frontend")
	m, err := Phase1(src)
	feSpan.End()
	if err != nil {
		return nil, nil, err
	}
	sumCtx, sumSpan := telemetry.StartSpan(ctx, "summarize")
	ms := summarizeModule(sumCtx, m)
	sumSpan.End()
	return m, ms, nil
}

// BuildOption configures one Build call.
type BuildOption func(*buildSettings)

// buildSettings is the resolved option set of one Build.
type buildSettings struct {
	profiled    bool
	trainInstrs uint64
	buildDir    string
	tracer      *telemetry.Tracer
	stderr      io.Writer
	verify      bool
}

// WithProfile enables profile-guided compilation (§6.1, Table 4 columns B
// and F): Build compiles with heuristic call counts, runs the result once
// on the simulator to collect gprof-style call-edge counts (maxInstrs
// bounds the training run; 0 uses the simulator default), then re-analyzes
// and re-runs phase 2 with the profile, reusing the training pass's
// phase-1 output. The training RunResult lands in BuildResult.Train.
func WithProfile(maxInstrs uint64) BuildOption {
	return func(s *buildSettings) {
		s.profiled = true
		s.trainInstrs = maxInstrs
	}
}

// WithBuildDir makes the build incremental against a persistent build
// directory (created if missing): phase 1 re-runs only for modules whose
// source changed, the analyzer always re-runs, and phase 2 re-runs only
// for modules whose source or consumed directives changed. The output is
// byte-identical to a from-scratch Build; the rebuild record lands in
// BuildResult.Incremental. Profile-guided builds keep their training pass
// in a "train" subdirectory so repeat builds skip it too. Every Build runs
// the same incremental driver; without a build directory (or with an
// empty dir) it compiles every module and reads and writes nothing.
func WithBuildDir(dir string) BuildOption {
	return func(s *buildSettings) { s.buildDir = dir }
}

// WithTelemetry attaches a tracer: every pipeline stage, per-module
// compile, analyzer stage, and incremental invalidation decision is
// recorded as a span or event on t, with rebuild counters alongside, and
// a snapshot lands in BuildResult.Report. Export with t.WriteChromeTrace
// (chrome://tracing, Perfetto) or t.Report. A tracer already attached to
// ctx via telemetry.WithTracer works the same way.
func WithTelemetry(t *telemetry.Tracer) BuildOption {
	return func(s *buildSettings) { s.tracer = t }
}

// WithStderr directs diagnostic output — the incremental driver's
// per-module rebuild explanations — to w. Without a build directory
// every module reads "recompiled (no build directory)".
func WithStderr(w io.Writer) BuildOption {
	return func(s *buildSettings) { s.stderr = w }
}

// WithVerify runs the internal/verify invariant checker over the program
// analyzer's output after each analysis (including the training pass of a
// profiled build). Every violation is recorded as a telemetry instant
// event ("verify.violation") and counted on "verify.violations", and the
// build fails with an error listing them. Builds without an analyzer pass
// (Level2) have nothing to verify and are unaffected.
func WithVerify() BuildOption {
	return func(s *buildSettings) { s.verify = true }
}

// verifyAnalysis checks one compiled program's analysis against the
// paper's invariants (no-op when the configuration ran no analyzer).
func verifyAnalysis(ctx context.Context, p *Program) error {
	if p == nil || p.Analysis == nil {
		return nil
	}
	res := p.Analysis
	violations := verify.Check(res.Graph, res.Sets, res.DB)
	for _, v := range violations {
		ev := telemetry.Event(ctx, "verify.violation")
		ev.SetStr("class", v.Class)
		ev.SetStr("proc", v.Proc)
		ev.SetStr("detail", v.Detail)
	}
	telemetry.Count(ctx, "verify.violations", int64(len(violations)))
	if len(violations) == 0 {
		return nil
	}
	msgs := make([]string, len(violations))
	for i, v := range violations {
		msgs[i] = v.String()
	}
	return fmt.Errorf("verify: %d allocation invariant violation(s):\n  %s",
		len(violations), strings.Join(msgs, "\n  "))
}

// BuildResult is the outcome of one Build: the compiled program (its
// fields are promoted, so result.Exe, result.Analysis, ... read
// directly), plus the artifacts of the options in effect.
type BuildResult struct {
	*Program
	// Train is the profiling run of a WithProfile build (nil otherwise).
	Train *RunResult
	// Incremental is the rebuild record of a WithBuildDir build
	// (nil otherwise).
	Incremental *incremental.Outcome
	// Report is the telemetry snapshot of this build (nil unless a tracer
	// was attached).
	Report *telemetry.Report
}

// Build runs the full two-pass pipeline over the sources: compiler first
// phase and summaries, program analyzer (when cfg.UseAnalyzer), compiler
// second phase, and link, fanning the module-at-a-time phases across
// cfg.Jobs workers with output byte-identical to a sequential run.
// Options select profile-guided compilation (WithProfile), persistent
// incremental build state (WithBuildDir), and telemetry (WithTelemetry).
func Build(ctx context.Context, sources []Source, cfg Config, opts ...BuildOption) (*BuildResult, error) {
	var s buildSettings
	for _, o := range opts {
		o(&s)
	}
	if s.tracer != nil {
		ctx = telemetry.WithTracer(ctx, s.tracer)
	}
	bctx, span := telemetry.StartSpan(ctx, "build")
	span.SetStr("config", cfg.Name)
	span.SetInt("modules", int64(len(sources)))
	span.SetInt("jobs", int64(pipeline.Workers(cfg.Jobs)))

	res := &BuildResult{}
	err := runBuild(bctx, sources, cfg, s, res)
	span.End()
	if err != nil {
		return nil, err
	}
	if t := telemetry.FromContext(bctx); t != nil {
		res.Report = t.Report()
	}
	return res, nil
}

// runBuild runs one Build under its resolved settings: an optional
// training pass, then the final compile.
func runBuild(ctx context.Context, sources []Source, cfg Config, s buildSettings, res *BuildResult) error {
	var train *Program
	if s.profiled {
		// Profile-guided (§6.1): compile with heuristic counts, run once
		// to collect call counts, then re-analyze and re-run phase 2 with
		// the profile. Incremental builds keep the training pass's state in a
		// "train" subdirectory, so the profiled directives in the main
		// store are never churned by the training pass and a no-edit
		// rebuild of both passes recompiles nothing.
		trainDir := ""
		if s.buildDir != "" {
			trainDir = filepath.Join(s.buildDir, "train")
		}
		var err error
		if train, _, err = compile(ctx, sources, cfg, trainDir, s.stderr, nil); err != nil {
			return err
		}
		if s.verify {
			if err := verifyAnalysis(ctx, train); err != nil {
				return fmt.Errorf("training pass: %w", err)
			}
		}
		_, runSpan := telemetry.StartSpan(ctx, "train-run")
		res.Train, err = train.Run(s.trainInstrs, true)
		runSpan.End()
		if err != nil {
			return fmt.Errorf("profiling run: %w", err)
		}
		cfg.Profile = res.Train.Profile
	}
	// Phase 1 depends only on the sources, so the final pass reuses the
	// training pass's phase-1 output instead of recompiling it.
	p, out, err := compile(ctx, sources, cfg, s.buildDir, s.stderr, train)
	if err != nil {
		return err
	}
	if s.verify {
		if err := verifyAnalysis(ctx, p); err != nil {
			return err
		}
	}
	res.Program, res.Incremental = p, out
	return nil
}

// eligibleMap converts the database's eligibility list into the lookup set
// the optimizer consumes.
func eligibleMap(db *pdb.Database) map[string]bool {
	eligible := make(map[string]bool, len(db.EligibleGlobals))
	for _, g := range db.EligibleGlobals {
		eligible[g] = true
	}
	return eligible
}

// phase2Module runs the compiler second phase on one module: apply the
// database's directives, optimize, and generate code. It never mutates m;
// everything runs on a scratch clone. The output is a pure function of the
// module IR, the directives of its own procedures, the clobber sets of its
// direct callees, and the eligibility of the globals it loads and stores —
// the phase-2 view the incremental driver diffs.
func phase2Module(ctx context.Context, m *ir.Module, db *pdb.Database, eligible map[string]bool) (*parv.Object, error) {
	ctx, span := telemetry.StartSpan(ctx, "module")
	defer span.End()
	span.SetStr("module", m.Name)

	// Web-promoted globals become pinned register references before
	// scalar optimization, so copy propagation folds them into their
	// uses (§5). Each function's steps touch only that function.
	_, sub := telemetry.StartSpan(ctx, "directives")
	work := m.Clone()
	dirs := make([]*pdb.ProcDirectives, len(work.Funcs))
	for i, f := range work.Funcs {
		dirs[i] = db.Lookup(f.Name)
		opt.ApplyWebDirectives(f, dirs[i].Promoted)
	}
	sub.End()

	_, sub = telemetry.StartSpan(ctx, "opt")
	for i, f := range work.Funcs {
		skip := make(map[string]bool, len(dirs[i].Promoted))
		for _, pg := range dirs[i].Promoted {
			skip[pg.Name] = true
		}
		opt.Level2(f, eligible, skip)
	}
	sub.End()

	_, sub = telemetry.StartSpan(ctx, "codegen")
	defer sub.End()
	return codegen.Compile(work, db)
}

// eligibleFromSummaries computes program-wide promotion eligibility for the
// level-2 baseline (scalar, defined, never aliased).
func eligibleFromSummaries(sums []*summary.ModuleSummary) []string {
	type info struct {
		scalar, defined, aliased bool
		size                     int32
	}
	m := make(map[string]*info)
	for _, ms := range sums {
		for _, g := range ms.Globals {
			gi := m[g.Name]
			if gi == nil {
				gi = &info{}
				m[g.Name] = gi
			}
			if g.Defined {
				gi.defined = true
				gi.scalar = g.Scalar
				gi.size = g.Size
			}
			if g.AddrTaken {
				gi.aliased = true
			}
		}
	}
	var out []string
	for name, gi := range m {
		if gi.scalar && gi.defined && !gi.aliased && gi.size <= 4 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// phase2Fingerprint versions the persisted phase-2 artifacts (objects in
// an incremental build directory). It must change whenever the optimizer,
// directive application, code generator, or object format change meaning.
const phase2Fingerprint = "ipra/phase2+codegen/v1"

// toolchainFingerprint stamps incremental build state. It combines both
// phase fingerprints with the Go toolchain version, so state written by an
// older compiler build is rejected wholesale rather than misinterpreted.
func toolchainFingerprint() string {
	return phase1Fingerprint + "|" + phase2Fingerprint + "|" + runtime.Version()
}

// ToolchainFingerprint identifies this binary's compilation semantics:
// every persistent or shared artifact (incremental build state, a build
// daemon's caches) is keyed or guarded by it, so artifacts produced under
// different semantics are rebuilt rather than reused. Two binaries with
// equal fingerprints produce byte-identical output for identical inputs.
func ToolchainFingerprint() string { return toolchainFingerprint() }

// compile runs the pipeline once through the incremental driver: against
// the persistent build directory when buildDir is set, with no store
// otherwise. In a build directory it recompiles phase 1 only for modules
// whose source changed, re-runs the program analyzer on the merged summary
// set, recompiles phase 2 only for modules whose source or consumed
// directives changed, and relinks from stored plus fresh objects; reuse is
// pure memoization, so the result is byte-identical to a build without
// one. Both phases fan out across cfg.Jobs workers into position-indexed
// slices, so the output is also byte-identical to a sequential (Jobs: 1)
// run. A non-nil prior is a program compiled from the same sources whose
// phase-1 output the compile reuses instead of running phase 1 again. The
// returned Outcome is nil without a build directory.
//
// The configuration needs no fingerprint of its own in the build state:
// nothing in Config reaches phase 1, and phase 2 sees the configuration
// only through the program database, whose directives are diffed directly.
// Switching configurations over one build directory therefore rebuilds
// exactly the modules whose directives the switch changes.
func compile(ctx context.Context, sources []Source, cfg Config, buildDir string, explainW io.Writer, prior *Program) (*Program, *incremental.Outcome, error) {
	ctx, span := telemetry.StartSpan(ctx, "compile")
	defer span.End()
	span.SetStr("config", cfg.Name)
	p := &Program{Config: cfg}
	// A prior program was compiled from these same sources, so its
	// phase-1 output is indexed like them.
	var priorIndex map[string]int
	if prior != nil {
		priorIndex = make(map[string]int, len(sources))
		for i, src := range sources {
			priorIndex[src.Name] = i
		}
	}
	tc := incremental.Toolchain{
		Fingerprint: toolchainFingerprint(),
		Phase1: func(ctx context.Context, name string, text []byte) (*ir.Module, *summary.ModuleSummary, error) {
			if i, ok := priorIndex[name]; ok {
				return prior.Modules[i], prior.Summaries[i], nil
			}
			return phase1Module(ctx, Source{Name: name, Text: text})
		},
		Analyze: func(ctx context.Context, sums []*summary.ModuleSummary, dirty []string, prevState []byte, keepState bool) (*pdb.Database, []byte, *core.ReuseStats, error) {
			if !cfg.UseAnalyzer {
				db := pdb.New()
				db.EligibleGlobals = eligibleFromSummaries(sums)
				return db, nil, nil, nil
			}
			o := cfg.analyzerOptions()
			if !keepState {
				res, err := core.Analyze(ctx, sums, o)
				if err != nil {
					return nil, nil, nil, err
				}
				p.Analysis = res
				return res.DB, nil, nil, nil
			}
			// Decode whatever state the build directory held (an
			// unreadable blob just means a full analysis), analyze reusing
			// it, and hand back the refreshed encoding.
			var prev *core.State
			if len(prevState) > 0 {
				if s, err := core.DecodeState(prevState); err == nil {
					prev = s
				}
			}
			res, st, rs, err := core.AnalyzeIncremental(ctx, sums, o, prev, dirty)
			if err != nil {
				return nil, nil, nil, err
			}
			p.Analysis = res
			var state []byte
			if st != nil && st.Unsupported() == "" {
				state = st.Encode()
			}
			return res.DB, state, rs, nil
		},
		Phase2: func(ctx context.Context, db *pdb.Database) func(ctx context.Context, m *ir.Module) (*parv.Object, error) {
			eligible := eligibleMap(db)
			return func(ctx context.Context, m *ir.Module) (*parv.Object, error) {
				return phase2Module(ctx, m, db, eligible)
			}
		},
		Link: func(ctx context.Context, objs []*parv.Object) (*parv.Executable, error) {
			return parv.Link(objs, parv.LinkConfig{DataSize: cfg.DataSize})
		},
	}
	out, err := incremental.Build(ctx, buildDir, sources, tc, incremental.Options{Jobs: cfg.Jobs, Explain: explainW})
	if err != nil {
		return nil, nil, err
	}
	p.Modules = out.Modules
	p.Summaries = out.Summaries
	p.DB = out.DB
	p.Objects = out.Objects
	p.Exe = out.Exe
	if buildDir == "" {
		out = nil
	}
	return p, out, nil
}

// RunResult is the outcome of executing a compiled program on the
// simulator.
type RunResult struct {
	Exit    int32
	Output  string
	Stats   parv.Stats
	Profile *parv.Profile
}

// Run executes the program on the PARV simulator, collecting statistics
// and (when profile is true) call-edge counts.
func (p *Program) Run(maxInstrs uint64, profile bool) (*RunResult, error) {
	vm := parv.NewVM(p.Exe)
	vm.ProfileEdges = profile
	exit, err := vm.Run(maxInstrs)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Exit: exit, Output: vm.Output(), Stats: vm.Stats}
	if profile {
		res.Profile = vm.Profile()
	}
	return res, nil
}
