package compiler_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/apps/jacobi"
	"repro/internal/apps/nas"
	"repro/internal/compiler"
	"repro/internal/engine"
)

// digestApps are the Model 2 applications the sweeps lower, built at a
// size (0 test, 1 bench) for a thread count (EP-hier gets one block per 8
// threads, as on the manycore machines).
var digestApps = []struct {
	name string
	new  func(size, threads int) *compiler.IRWorkload
}{
	{"jacobi", func(sz, n int) *compiler.IRWorkload { return jacobi.New(jacobi.Size(sz), n) }},
	{"cg", func(sz, n int) *compiler.IRWorkload { return nas.CG(nas.Size(sz), n) }},
	{"ep", func(sz, n int) *compiler.IRWorkload { return nas.EP(nas.Size(sz), n) }},
	{"ep-hier", func(sz, n int) *compiler.IRWorkload { return nas.EPHier(nas.Size(sz), n, max(1, n/8)) }},
	{"is", func(sz, n int) *compiler.IRWorkload { return nas.IS(nas.Size(sz), n) }},
}

// wantPlanDigests pins Analyze's output: any change to an annotation's
// ranges, peer, multi flag or list position, to a reduction's element
// ranges, or to an inspector's owner function changes the digest.
var wantPlanDigests = map[string]string{
	"cg/bench/1024":      "43381882aeea63d4e7e66c49b5310280287b1f92fa9b18a2d923a4160474ccc2",
	"cg/bench/32":        "e2e3ceefe31674d89984b8b43bbe235c7165df8ebced5f0e646f0c101463e85e",
	"cg/bench/64":        "5c760bd566c9b935f66435b958ed1c8976ecfd6f84fc28d9221c305022caff60",
	"cg/bench/8":         "6ed7f0a498caeb9d53b3d55f75ec33c3bb20bdb6f7df525060f57e91e68d2b43",
	"cg/test/1024":       "d2b27b75898f35f0d4f7be1de74d667fe54f79c1d5d30488d72deff233fc61f7",
	"cg/test/32":         "047673a2c522f06f78710c66bc7a2cb604cea25e80048ee9b770c9df1a3fff78",
	"cg/test/64":         "ca04ab2a1054719e87c766c6880a19386d4c22504377d7186b2c6a0071c3c3d1",
	"cg/test/8":          "1810eba4b384c9adfe0877f05b8f315c1ccf05693e1fbf67cc6b769bca1857d3",
	"ep-hier/bench/1024": "86ac94ed84e8c41fffd5bef4681ddbbd87145d21aa65e28a7ae876ba59b9830e",
	"ep-hier/bench/32":   "3a6880dcd92a0f63ca9f6d65eeb56987e0415390b30aee3218cfe3fce2a804b9",
	"ep-hier/bench/64":   "6ba483192e972712336a2ced602e72a0ddc25f7c8029e02cb98466e37a6a6f63",
	"ep-hier/bench/8":    "e6da94d4794a9ac686ba19d2c257bd5ef72c6e7846b769cb9f9b989f00aa963f",
	"ep-hier/test/1024":  "e74a62ffc51793cf4540bfd68010709be38725c91febc3512630928b5acc970a",
	"ep-hier/test/32":    "3a6880dcd92a0f63ca9f6d65eeb56987e0415390b30aee3218cfe3fce2a804b9",
	"ep-hier/test/64":    "6ba483192e972712336a2ced602e72a0ddc25f7c8029e02cb98466e37a6a6f63",
	"ep-hier/test/8":     "e6da94d4794a9ac686ba19d2c257bd5ef72c6e7846b769cb9f9b989f00aa963f",
	"ep/bench/1024":      "aa0c77c3c14f5ba55aeaff39212ba3e277e457e7243b6451766eba4b86ca63aa",
	"ep/bench/32":        "aa0c77c3c14f5ba55aeaff39212ba3e277e457e7243b6451766eba4b86ca63aa",
	"ep/bench/64":        "aa0c77c3c14f5ba55aeaff39212ba3e277e457e7243b6451766eba4b86ca63aa",
	"ep/bench/8":         "aa0c77c3c14f5ba55aeaff39212ba3e277e457e7243b6451766eba4b86ca63aa",
	"ep/test/1024":       "aa0c77c3c14f5ba55aeaff39212ba3e277e457e7243b6451766eba4b86ca63aa",
	"ep/test/32":         "aa0c77c3c14f5ba55aeaff39212ba3e277e457e7243b6451766eba4b86ca63aa",
	"ep/test/64":         "aa0c77c3c14f5ba55aeaff39212ba3e277e457e7243b6451766eba4b86ca63aa",
	"ep/test/8":          "aa0c77c3c14f5ba55aeaff39212ba3e277e457e7243b6451766eba4b86ca63aa",
	"is/bench/1024":      "8b1ff6085402a94bf94b78ee6f64aec09840cacdc1ee085976c7dd86ba34effa",
	"is/bench/32":        "c30bb90b3f4181d7551045fb4c02808985693dc6df284554d4a9bb115ac7762d",
	"is/bench/64":        "bee28d261798ce4d5ae5090792d8a38a49e862a796d729da03d9a7905a6791b3",
	"is/bench/8":         "5c1da3e175d6fb29561ba5d7e0599eb37c2d34d01c97082b7f6e3682015b881c",
	"is/test/1024":       "b64630383df7a20fa2e7e373719180b0722c9acd86ae77747648f32f6791e641",
	"is/test/32":         "9bc45a4e72fe7a2a296c9d22a4a4f153deb1bdef1fed5a4b986d05f82034d2b3",
	"is/test/64":         "69db7f6bab9e3e271f18d15d0ec60a499f30993e36d4114787b866e42bc2a854",
	"is/test/8":          "d59f7abd9ccf0994e755ec0d836e334b218aab365a76aa9de742c278c4d2ebf2",
	"jacobi/bench/1024":  "862e3bccdaeb457b66af6fc3f7db99b69c900dd2f1bde0c29e38545936059343",
	"jacobi/bench/32":    "24e53e0bb72c7b141a559aa547c89f8148cdc53cdd3835ab47b0190484c20915",
	"jacobi/bench/64":    "ca77b5d709c493dd12f411e14737a2dea0650685a4cabab5e969053203e73a4b",
	"jacobi/bench/8":     "42431956e716ba6d9f5987fb53f1efef09311130f743593d7a2c2582b3a1f3c5",
	"jacobi/test/1024":   "6a171f22dea8449da3aef50ad841c624595647e73c0b4bca05b03fdc1b2260a7",
	"jacobi/test/32":     "153ffd230acffed225143acdb01672c625d6335a446e82558c79d6ae8869fbd3",
	"jacobi/test/64":     "a3e8d5805449cfec1ff17d856921ab959fb2e66c15a42ff6c15ef85c7d1b8220",
	"jacobi/test/8":      "ea84a0dbf6b1771a966f96ca05129b92a7dd571a7e54076838524203473753e0",
}

// loopsInOrder lists prog's loops in program order (each once).
func loopsInOrder(stmts []compiler.Stmt, out []*compiler.Loop) []*compiler.Loop {
	for _, s := range stmts {
		switch s := s.(type) {
		case *compiler.Loop:
			out = append(out, s)
		case *compiler.TimeLoop:
			out = loopsInOrder(s.Body, out)
		}
	}
	return out
}

func writeAnns(h hash.Hash, tag string, per [][]compiler.Annotation) {
	for t, anns := range per {
		for k, a := range anns {
			fmt.Fprintf(h, "%s t%d #%d peer=%d multi=%v", tag, t, k, a.Peer, a.Multi)
			for _, r := range a.Ranges {
				fmt.Fprintf(h, " %#x+%d", r.Base, r.Bytes)
			}
			fmt.Fprintln(h)
		}
	}
}

func planDigest(w *compiler.IRWorkload) string {
	plan := compiler.Analyze(w.Prog, w.Threads)
	h := sha256.New()
	for _, l := range loopsInOrder(w.Prog.Stmts, nil) {
		lp := plan.Loops[l]
		fmt.Fprintf(h, "loop %s\n", l.Name)
		writeAnns(h, "wb", lp.WBOut)
		writeAnns(h, "inv", lp.INVIn)
		for _, r := range lp.ReductionElems {
			fmt.Fprintf(h, "red %#x+%d\n", r.Base, r.Bytes)
		}
		for _, in := range lp.Inspectors {
			arr := w.Prog.Arrays[l.Reads[in.ReadIdx].Array]
			fmt.Fprintf(h, "insp %d:", in.ReadIdx)
			for e := 0; e < arr.Len; e++ {
				fmt.Fprintf(h, " %d", in.OwnerOf(e))
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAnalyzePlanDigest checks that the analysis produces exactly the
// recorded plans for every application at small, inter-block and
// many-core thread counts.
func TestAnalyzePlanDigest(t *testing.T) {
	for _, app := range digestApps {
		for sz, size := range []string{"test", "bench"} {
			for _, threads := range []int{8, 32, 64, 1024} {
				key := fmt.Sprintf("%s/%s/%d", app.name, size, threads)
				got := planDigest(app.new(sz, threads))
				if want := wantPlanDigests[key]; got != want {
					t.Errorf("%s: plan digest %s, want %s", key, got, want)
				}
			}
		}
	}
}

// TestAnalyzeAllocsLinear guards the analysis against quadratic growth in
// the thread count: 8× the threads may cost at most 12× the allocations
// (8× is linear).
func TestAnalyzeAllocsLinear(t *testing.T) {
	allocs := func(threads int) float64 {
		prog := jacobi.New(jacobi.Bench, threads).Prog
		return testing.AllocsPerRun(3, func() { compiler.Analyze(prog, threads) })
	}
	small, large := allocs(128), allocs(1024)
	if large > 12*small {
		t.Errorf("Analyze allocations: %.0f at 128 threads, %.0f at 1024 (%.1f×, limit 12×)", small, large, large/small)
	}
}

// lowered keeps BenchmarkLower's result live.
var lowered []engine.Guest

// BenchmarkLower times the Model 2 compiler alone (analysis plus guest
// construction) on Jacobi at an inter-block and a many-core thread count.
func BenchmarkLower(b *testing.B) {
	for _, threads := range []int{64, 1024} {
		b.Run(fmt.Sprintf("jacobi/threads-%d", threads), func(b *testing.B) {
			prog := jacobi.New(jacobi.Bench, threads).Prog
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lowered = compiler.Lower(prog, threads, compiler.ModeAddrL)
			}
		})
	}
}
