package core

import (
	"context"
	"testing"

	"ipra/internal/progen"
	"ipra/internal/summary"
	"ipra/internal/verify"
)

// incrementalConfigs are the analyzer shapes of the build presets A–F
// (profiles excluded: attaching one only forces the count stage, which
// the structural edits below exercise anyway).
func incrementalConfigs() map[string]Options {
	spillOnly := Options{SpillMotion: true, Promotion: PromoteNone}
	coloring := DefaultOptions()
	greedy := DefaultOptions()
	greedy.Promotion = PromoteGreedy
	blanket := DefaultOptions()
	blanket.Promotion = PromoteBlanket
	return map[string]Options{
		"spill-only": spillOnly,
		"coloring":   coloring,
		"greedy":     greedy,
		"blanket":    blanket,
	}
}

// diffModules names the modules whose summaries differ between two
// versions of the program (by pointer: the mutator shares unedited ones).
func diffModules(before, after []*summary.ModuleSummary) []string {
	var out []string
	for i := range after {
		if before[i] != after[i] {
			out = append(out, after[i].Module)
		}
	}
	return out
}

// TestIncrementalMatchesClean drives a chain of edits of every kind over
// a generated program and asserts, at every step and for every promotion
// strategy, that incremental re-analysis produces a database byte-identical
// to a clean analysis of the same summaries, and that the independent
// verifier stays clean.
func TestIncrementalMatchesClean(t *testing.T) {
	cfg, err := progen.Preset("small")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for name, opt := range incrementalConfigs() {
		opt := opt
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sums := progen.GenerateSummaries(cfg)
			res, err := Analyze(ctx, sums, opt)
			if err != nil {
				t.Fatal(err)
			}
			st := NewState(res, sums, opt)
			if r := st.Unsupported(); r != "" {
				t.Fatalf("state unsupported: %s", r)
			}

			seed := int64(1)
			for round := 0; round < 2; round++ {
				for _, kind := range progen.EditKinds() {
					seed++
					mut, desc := progen.MutateSummaries(cfg, sums, seed, kind)
					dirty := diffModules(sums, mut)

					clean, err := Analyze(ctx, mut, opt)
					if err != nil {
						t.Fatalf("%s: clean analyze: %v", desc, err)
					}
					inc, st2, rs, err := AnalyzeIncremental(ctx, mut, opt, st, dirty)
					if err != nil {
						t.Fatalf("%s: incremental analyze: %v", desc, err)
					}
					if got, want := inc.DB.Hash(), clean.DB.Hash(); got != want {
						t.Fatalf("%s: database diverged (incremental %s, clean %s; reuse=%+v)", desc, got, want, rs)
					}
					if inc.Stats != clean.Stats {
						t.Errorf("%s: stats diverged (incremental %+v, clean %+v)", desc, inc.Stats, clean.Stats)
					}
					if v := verify.Check(inc.Graph, inc.Sets, inc.DB); len(v) > 0 {
						t.Fatalf("%s: verifier found %d violations, first: %v", desc, len(v), v[0])
					}

					switch kind {
					case progen.EditNoop:
						if rs.Fallback != "" || rs.WebsRebuilt != 0 {
							t.Errorf("%s: expected full reuse, got %+v", desc, rs)
						}
					case progen.EditBody:
						if rs.Fallback != "" {
							t.Errorf("%s: unexpected fallback %q", desc, rs.Fallback)
						}
						if rs.WebsReused == 0 {
							t.Errorf("%s: expected web reuse, got %+v", desc, rs)
						}
					case progen.EditCall:
						if rs.Fallback != "" {
							t.Errorf("%s: unexpected fallback %q", desc, rs.Fallback)
						}
						if !rs.Structural {
							t.Errorf("%s: expected structural edit, got %+v", desc, rs)
						}
					case progen.EditCycle:
						if rs.Fallback == "" {
							t.Errorf("%s: expected SCC fallback, got %+v", desc, rs)
						}
					}

					sums, st = mut, st2
				}
			}
		})
	}
}

// TestIncrementalStateRoundTrip runs one edit through an encode/decode
// cycle of the analyzer state — the build-directory path — and asserts
// byte-identity against a clean analysis.
func TestIncrementalStateRoundTrip(t *testing.T) {
	cfg, err := progen.Preset("small")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := DefaultOptions()
	sums := progen.GenerateSummaries(cfg)
	res, err := Analyze(ctx, sums, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(res, sums, opt)

	for _, kind := range []progen.EditKind{progen.EditNoop, progen.EditBody, progen.EditCall} {
		data := st.Encode()
		decoded, err := DecodeState(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}

		mut, desc := progen.MutateSummaries(cfg, sums, 7, kind)
		dirty := diffModules(sums, mut)
		clean, err := Analyze(ctx, mut, opt)
		if err != nil {
			t.Fatal(err)
		}
		inc, st2, rs, err := AnalyzeIncremental(ctx, mut, opt, decoded, dirty)
		if err != nil {
			t.Fatalf("%s: incremental analyze: %v", desc, err)
		}
		if rs.Fallback != "" {
			t.Errorf("%s: unexpected fallback %q after round trip", desc, rs.Fallback)
		}
		if got, want := inc.DB.Hash(), clean.DB.Hash(); got != want {
			t.Fatalf("%s: database diverged after round trip (incremental %s, clean %s)", desc, got, want)
		}
		if kind == progen.EditNoop && rs.WebsRebuilt != 0 {
			t.Errorf("%s: expected zero rebuilt webs, got %+v", desc, rs)
		}
		// A second encode of the refreshed state must itself decode.
		if _, err := DecodeState(st2.Encode()); err != nil {
			t.Fatalf("%s: re-encode: %v", desc, err)
		}
	}
}

// TestIncrementalFallbackGuards exercises the explicit fallback paths.
func TestIncrementalFallbackGuards(t *testing.T) {
	cfg, err := progen.Preset("small")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := DefaultOptions()
	sums := progen.GenerateSummaries(cfg)
	res, err := Analyze(ctx, sums, opt)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		prev func() *State
		opt  Options
		sums func() []*summary.ModuleSummary
	}{
		{name: "nil state", prev: func() *State { return nil }, opt: opt, sums: func() []*summary.ModuleSummary { return sums }},
		{name: "options changed", prev: func() *State { return NewState(res, sums, opt) },
			opt:  func() Options { o := opt; o.ColoringRegs = 4; return o }(),
			sums: func() []*summary.ModuleSummary { return sums }},
		{name: "module set changed", prev: func() *State { return NewState(res, sums, opt) }, opt: opt,
			sums: func() []*summary.ModuleSummary { return sums[:len(sums)-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sums()
			clean, err := Analyze(ctx, s, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			inc, _, rs, err := AnalyzeIncremental(ctx, s, tc.opt, tc.prev(), diffModules(sums[:len(s)], s))
			if err != nil {
				t.Fatal(err)
			}
			if rs.Fallback == "" {
				t.Errorf("expected fallback, got %+v", rs)
			}
			if inc.DB.Hash() != clean.DB.Hash() {
				t.Errorf("fallback database diverged")
			}
		})
	}
}

// TestOptionsKeyDistinguishes ensures the option fingerprint separates
// every output-shaping field.
func TestOptionsKeyDistinguishes(t *testing.T) {
	base := DefaultOptions()
	variants := []func(*Options){
		func(o *Options) { o.SpillMotion = false },
		func(o *Options) { o.Promotion = PromoteGreedy },
		func(o *Options) { o.ColoringRegs = 4 },
		func(o *Options) { o.BlanketCount = 3 },
		func(o *Options) { o.PartialProgram = true },
		func(o *Options) { o.MergeWebs = true },
		func(o *Options) { o.CallerSavesPreallocation = true },
	}
	seenKeys := map[string]int{optionsKey(base): -1}
	for i, v := range variants {
		o := base
		v(&o)
		k := optionsKey(o)
		if j, dup := seenKeys[k]; dup {
			t.Errorf("variant %d collides with %d: %s", i, j, k)
		}
		seenKeys[k] = i
	}
	// Jobs must NOT change the key: output is identical at any setting.
	o := base
	o.Jobs = 7
	if optionsKey(o) != optionsKey(base) {
		t.Error("Jobs changed the options key")
	}
}
