// ipra-bench regenerates the paper's evaluation tables over the Table 3
// benchmark analogs:
//
//	ipra-bench -table 4        Table 4: % cycle improvement over level 2
//	ipra-bench -table 5        Table 5: % singleton memory ref reduction
//	ipra-bench -raw            absolute counters for every cell
//	ipra-bench -webstats       §6.2 web census on a generated large program
//	ipra-bench -bench NAME     restrict to one benchmark
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ipra/internal/bench"
	"ipra/internal/census"
	"ipra/internal/cliutil"
)

func main() {
	var (
		table    = flag.Int("table", 0, "paper table to regenerate (4 or 5; 0 = both)")
		raw      = flag.Bool("raw", false, "print absolute counter values")
		webstats = flag.Bool("webstats", false, "print the §6.2 web census on a generated large program")
		only     = flag.String("bench", "", "run a single benchmark")
	)
	common := cliutil.New("ipra-bench")
	common.Register(flag.CommandLine)
	flag.Parse()
	if err := common.Start(); err != nil {
		fatal(err)
	}
	ctx := common.Context(context.Background())

	err := run(ctx, common, *table, *raw, *webstats, *only)
	if common.Verbose {
		common.CacheStats(os.Stderr)
	}
	if ferr := common.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fatal(err)
	}
}

func run(ctx context.Context, common *cliutil.Common, table int, raw, webstats bool, only string) error {
	if webstats {
		return census.Print(ctx, os.Stdout)
	}

	opt := bench.Options{Jobs: common.Jobs}
	if only != "" {
		opt.Benchmarks = []string{only}
	}
	rows, err := bench.RunAll(ctx, opt)
	if err != nil {
		return err
	}
	if raw {
		for _, r := range rows {
			bench.WriteRaw(os.Stdout, r)
			fmt.Println()
		}
		return nil
	}
	if table == 0 || table == 4 {
		bench.WriteTable4(os.Stdout, rows)
		fmt.Println()
	}
	if table == 0 || table == 5 {
		bench.WriteTable5(os.Stdout, rows)
	}
	return nil
}

func fatal(err error) {
	cliutil.Fatal("ipra-bench", err)
}
