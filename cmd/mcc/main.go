// mcc is the MiniC compiler driver, exposing the paper's two-pass
// organization (Figure 1) as a command-line tool:
//
//	mcc -phase1 file.mc ...   parse/check each module, writing file.ir
//	                          (intermediate code) and file.sum (summary)
//	mcc -phase2 -pdb p.json file.ir ...
//	                          optimize and generate a PARV object file
//	                          (file.obj) for each module under the program
//	                          database's directives
//	mcc -link out.exe file.obj ...
//	                          link objects into an executable image
//	mcc -incremental -build-dir dir file.mc ...
//	                          full build (both phases, analyzer, link)
//	                          against a persistent build directory,
//	                          recompiling only what changed
//	mcc -remote unix:/tmp/ipra.sock file.mc ...
//	                          full build on a running ipra-served daemon;
//	                          the returned executable is byte-identical
//	                          to a local build of the same sources/config
//
// Run the program analyzer (ipra-analyze) between the phases; without a
// program database, phase 2 compiles at plain level-2 optimization. The
// incremental mode runs the analyzer itself (-config picks the Table 4
// configuration) and guarantees output byte-identical to a clean build;
// -explain prints why each module was or wasn't rebuilt.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ipra"
	"ipra/internal/cliutil"
	"ipra/internal/ir"
	"ipra/internal/parv"
	"ipra/internal/pdb"
	"ipra/internal/pipeline"
	"ipra/internal/served"
	"ipra/internal/summary"
)

func main() {
	var (
		phase1      = flag.Bool("phase1", false, "run the compiler first phase on MiniC sources")
		phase2      = flag.Bool("phase2", false, "run the compiler second phase on intermediate files")
		link        = flag.String("link", "", "link object files into the named executable image")
		incremental = flag.Bool("incremental", false, "full minimal-rebuild compile of MiniC sources against -build-dir")
		remote      = flag.String("remote", "", "build on an ipra-served daemon at this address (unix:/path or host:port)")
		pdbPath     = flag.String("pdb", "", "program database for phase 2 (from ipra-analyze)")
		outDir      = flag.String("o", ".", "output directory")
		buildDir    = flag.String("build-dir", ".mcc-build", "incremental build-state directory")
		explain     = flag.Bool("explain", false, "print why each module was or wasn't rebuilt (incremental mode)")
	)
	build := &cliutil.BuildFlags{}
	build.RegisterBuild(flag.CommandLine)
	common := cliutil.New("mcc")
	common.Register(flag.CommandLine)
	flag.Parse()
	if err := common.Start(); err != nil {
		common.Fatal(err)
	}
	ctx := common.Context(context.Background())

	var err error
	switch {
	case *phase1:
		err = runPhase1(flag.Args(), *outDir, common.Jobs)
	case *phase2:
		err = runPhase2(flag.Args(), *pdbPath, *outDir, common.Jobs)
	case *link != "":
		err = runLink(flag.Args(), *link)
	case *remote != "":
		err = runRemote(ctx, flag.Args(), *remote, build, common)
	case *incremental:
		err = runIncremental(ctx, flag.Args(), *buildDir, build, common, *explain)
	default:
		fmt.Fprintln(os.Stderr, "mcc: specify -phase1, -phase2, -link, -incremental, or -remote (see -help)")
		os.Exit(2)
	}
	if ferr := common.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		common.Fatal(err)
	}
}

func stem(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// runPhase1 compiles each source module independently on the worker
// pool: parse, check, lower, write the intermediate file and the summary
// file. Progress lines print in argument order once everything finishes,
// so parallel and sequential runs emit identical output.
func runPhase1(files []string, outDir string, jobs int) error {
	if len(files) == 0 {
		return fmt.Errorf("phase1: no source files")
	}
	lines, err := pipeline.Map(jobs, files, func(_ int, f string) (string, error) {
		text, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		irm, err := ipra.Phase1(ipra.Source{Name: filepath.Base(f), Text: text})
		if err != nil {
			return "", err
		}
		if err := ir.WriteFile(filepath.Join(outDir, stem(f)+".ir"), irm); err != nil {
			return "", err
		}
		// Summaries reflect optimized code (§6).
		ms := ipra.Summaries([]*ir.Module{irm})[0]
		if err := summary.WriteFile(filepath.Join(outDir, stem(f)+".sum"), ms); err != nil {
			return "", err
		}
		return fmt.Sprintf("mcc: %s -> %s.ir, %s.sum", f, stem(f), stem(f)), nil
	})
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	return nil
}

// runPhase2 compiles each intermediate file independently on the worker
// pool; the program database is shared read-only, exactly as the paper's
// order-independent second phase requires (§4.3).
func runPhase2(files []string, pdbPath, outDir string, jobs int) error {
	if len(files) == 0 {
		return fmt.Errorf("phase2: no intermediate files")
	}
	db := pdb.New()
	if pdbPath != "" {
		var err error
		db, err = pdb.ReadFile(pdbPath)
		if err != nil {
			return err
		}
	}
	lines, err := pipeline.Map(jobs, files, func(_ int, f string) (string, error) {
		m, err := ir.ReadFile(f)
		if err != nil {
			return "", err
		}
		obj, err := ipra.Phase2(m, db)
		if err != nil {
			return "", err
		}
		out := filepath.Join(outDir, stem(f)+".obj")
		if err := parv.WriteObjectFile(out, obj); err != nil {
			return "", err
		}
		return fmt.Sprintf("mcc: %s -> %s", f, out), nil
	})
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	return nil
}

func runLink(files []string, out string) error {
	var objs []*parv.Object
	for _, f := range files {
		o, err := parv.ReadObjectFile(f)
		if err != nil {
			return err
		}
		objs = append(objs, o)
	}
	exe, err := parv.Link(objs, parv.LinkConfig{})
	if err != nil {
		return err
	}
	if err := parv.WriteExecutableFile(out, exe); err != nil {
		return err
	}
	fmt.Printf("mcc: linked %d modules -> %s (%d instructions)\n", len(objs), out, len(exe.Code))
	return nil
}

// readSources loads the named files as build-request modules.
func readSources(files []string) ([]ipra.Source, error) {
	sources := make([]ipra.Source, len(files))
	for i, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		sources[i] = ipra.Source{Name: filepath.Base(f), Text: text}
	}
	return sources, nil
}

// runRemote submits the build to an ipra-served daemon and writes the
// returned executable — byte-identical to a local build of the same
// sources and configuration.
func runRemote(ctx context.Context, files []string, addr string, build *cliutil.BuildFlags, common *cliutil.Common) error {
	if len(files) == 0 {
		return fmt.Errorf("remote: no source files")
	}
	cfg, err := build.Config()
	if err != nil {
		return err
	}
	sources, err := readSources(files)
	if err != nil {
		return err
	}
	client, err := served.Dial(addr)
	if err != nil {
		return err
	}
	client.Retries = 4

	req := &served.BuildRequest{
		Config:      cfg.Name,
		Sources:     make([]served.Source, len(sources)),
		TrainInstrs: build.TrainInstrs,
		Verify:      common.Verify,
	}
	for i, s := range sources {
		req.Sources[i] = served.Source{Name: s.Name, Text: string(s.Text)}
	}
	resp, err := client.Build(ctx, req)
	if err != nil {
		return err
	}

	if common.Verbose {
		how := "built"
		switch {
		case resp.Dedup:
			how = "deduplicated against a concurrent identical build"
		case resp.ResultCached:
			how = "served from the daemon's result cache"
		}
		fmt.Fprintf(os.Stderr, "mcc: remote request %d: %s in %.1fms\n", resp.RequestID, how, resp.ElapsedMS)
		if inc := resp.Incremental; inc != nil {
			fmt.Fprintf(os.Stderr, "mcc: remote state: %d phase-1 rebuilds, %d phase-2 rebuilds, reset=%v\n",
				inc.Phase1Rebuilds, inc.Phase2Rebuilds, inc.StateReset)
		}
	}

	exeOut := build.ExePath
	if exeOut == "" {
		exeOut = "program.exe"
	}
	if err := os.WriteFile(exeOut, resp.Exe, 0o644); err != nil {
		return err
	}
	fmt.Printf("mcc: %d modules -> %s (%d instructions, config %s, remote)\n",
		len(sources), exeOut, resp.Instructions, resp.Config)
	return nil
}

// runIncremental is the minimal-rebuild driver: both compiler phases, the
// program analyzer, and the link in one command, backed by the persistent
// build directory. Profiled configurations (B, F) run their training pass
// against a "train" subdirectory, so repeat builds skip it too.
func runIncremental(ctx context.Context, files []string, buildDir string, build *cliutil.BuildFlags, common *cliutil.Common, explain bool) error {
	if len(files) == 0 {
		return fmt.Errorf("incremental: no source files")
	}
	cfg, err := build.Config()
	if err != nil {
		return err
	}
	cfg.Jobs = common.Jobs

	sources, err := readSources(files)
	if err != nil {
		return err
	}

	opts := []ipra.BuildOption{ipra.WithBuildDir(buildDir)}
	if explain {
		opts = append(opts, ipra.WithStderr(os.Stderr))
	}
	if cfg.WantProfile {
		opts = append(opts, ipra.WithProfile(build.TrainInstrs))
	}
	if common.Verify {
		opts = append(opts, ipra.WithVerify())
	}
	res, err := ipra.Build(ctx, sources, cfg, opts...)
	if err != nil {
		return err
	}

	if common.Verbose && res.Incremental != nil {
		if r := res.Incremental.Analyzer; r != nil {
			if r.Fallback != "" {
				fmt.Fprintf(os.Stderr, "mcc: analyzer cache: full analysis (%s)\n", r.Fallback)
			} else {
				clusters := "reused"
				if r.ClustersRebuilt {
					clusters = "rebuilt"
				}
				fmt.Fprintf(os.Stderr, "mcc: analyzer cache: %d webs reused, %d rebuilt, clusters %s (%d dirty modules)\n",
					r.WebsReused, r.WebsRebuilt, clusters, r.DirtyModules)
			}
		}
	}

	exeOut := build.ExePath
	if exeOut == "" {
		exeOut = filepath.Join(buildDir, "program.exe")
	}
	if err := parv.WriteExecutableFile(exeOut, res.Exe); err != nil {
		return err
	}
	fmt.Printf("mcc: %d modules -> %s (%d instructions, config %s)\n",
		len(sources), exeOut, len(res.Exe.Code), cfg.Name)
	return nil
}
