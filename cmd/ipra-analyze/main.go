// ipra-analyze is the program analyzer tool (§4 of the paper). It reads
// the summary files produced by `mcc -phase1`, builds the program call
// graph, runs global variable promotion and spill code motion, and writes
// the program database consumed by `mcc -phase2`.
//
//	ipra-analyze -o prog.pdb main.sum lib.sum ...
//
// Flags select the paper's strategies: -promotion {none,coloring,greedy,
// blanket}, -regs N (coloring registers), -spill-motion, and -profile to
// supply profiled call counts.
//
// For scaling experiments, -synth <preset> analyzes a synthesized whole
// program (small/medium/large, ~500/2000/10000 procedures) instead of
// summary files, -j bounds analyzer parallelism, and -cpuprofile/
// -memprofile capture pprof data for the run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ipra/internal/cliutil"
	"ipra/internal/core"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/progen"
	"ipra/internal/summary"
	"ipra/internal/verify"
)

func main() {
	var (
		out         = flag.String("o", "prog.pdb", "program database output path")
		promotion   = flag.String("promotion", "coloring", "global variable promotion: none, coloring, greedy, blanket")
		regsN       = flag.Int("regs", 6, "callee-saves registers reserved for web coloring")
		blanketN    = flag.Int("blanket", 6, "globals promoted under blanket mode")
		spillMotion = flag.Bool("spill-motion", true, "enable spill code motion (clusters)")
		profilePath = flag.String("profile", "", "JSON profile file with exact call counts (from mvm -profile)")
		partial     = flag.Bool("partial", false, "partial call graph: assume unknown external callers (§7.2)")
		mergeWebs   = flag.Bool("merge-webs", false, "re-merge webs through common dominators (§7.6.1)")
		callerSaves = flag.Bool("caller-saves", false, "banded caller-saves preallocation (§7.6.2)")
		synth       = flag.String("synth", "", "analyze a synthesized program instead of summary files ("+strings.Join(progen.PresetNames(), ", ")+")")
	)
	common := cliutil.New("ipra-analyze")
	common.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 && *synth == "" {
		fmt.Fprintln(os.Stderr, "ipra-analyze: no summary files (or use -synth <preset>)")
		os.Exit(2)
	}
	if err := common.Start(); err != nil {
		fatal(err)
	}
	ctx := common.Context(context.Background())

	opt := core.DefaultOptions()
	opt.SpillMotion = *spillMotion
	opt.ColoringRegs = *regsN
	opt.BlanketCount = *blanketN
	opt.PartialProgram = *partial
	opt.MergeWebs = *mergeWebs
	opt.CallerSavesPreallocation = *callerSaves
	opt.Jobs = common.Jobs
	switch *promotion {
	case "none":
		opt.Promotion = core.PromoteNone
	case "coloring":
		opt.Promotion = core.PromoteColoring
	case "greedy":
		opt.Promotion = core.PromoteGreedy
	case "blanket":
		opt.Promotion = core.PromoteBlanket
	default:
		fmt.Fprintf(os.Stderr, "ipra-analyze: unknown promotion mode %q\n", *promotion)
		os.Exit(2)
	}

	if *profilePath != "" {
		data, err := os.ReadFile(*profilePath)
		if err != nil {
			fatal(err)
		}
		var prof profileFile
		if err := json.Unmarshal(data, &prof); err != nil {
			fatal(fmt.Errorf("profile %s: %w", *profilePath, err))
		}
		opt.Profile = prof.toProfile()
	}

	var sums []*summary.ModuleSummary
	if *synth != "" {
		pcfg, err := progen.Preset(*synth)
		if err != nil {
			fatal(err)
		}
		sums = progen.GenerateSummaries(pcfg)
	}
	for _, f := range flag.Args() {
		ms, err := summary.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		sums = append(sums, ms)
	}

	res, err := core.Analyze(ctx, sums, opt)
	if err != nil {
		fatal(err)
	}
	if common.Verify {
		if vs := verify.Check(res.Graph, res.Sets, res.DB); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "ipra-analyze: verify: %s\n", v)
			}
			fatal(fmt.Errorf("verify: %d allocation invariant violation(s)", len(vs)))
		}
		fmt.Printf("ipra-analyze: verify: %d procedures clean\n", len(res.DB.Procs))
	}
	if err := pdb.WriteFile(*out, res.DB); err != nil {
		fatal(err)
	}
	if common.Verbose {
		fmt.Print(res.Report())
	}
	if err := common.Finish(); err != nil {
		fatal(err)
	}
	fmt.Printf("ipra-analyze: %d summaries -> %s (%d procedures)\n",
		len(sums), *out, len(res.DB.Procs))
}

func fatal(err error) {
	cliutil.Fatal("ipra-analyze", err)
}

// profileFile is the on-disk profile format shared with mvm.
type profileFile struct {
	Edges []profileEdge `json:"edges"`
}

type profileEdge struct {
	Caller string `json:"caller"`
	Callee string `json:"callee"`
	Count  uint64 `json:"count"`
}

func (p *profileFile) toProfile() *parv.Profile {
	prof := &parv.Profile{
		Edges: make(map[parv.EdgeKey]uint64),
		Calls: make(map[string]uint64),
	}
	for _, e := range p.Edges {
		prof.Edges[parv.EdgeKey{Caller: e.Caller, Callee: e.Callee}] = e.Count
		prof.Calls[e.Callee] += e.Count
	}
	return prof
}
