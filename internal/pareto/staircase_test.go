package pareto

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

// staircaseRun feeds points through the engine's admission path in
// order, calling check after every admission. The engine walks a
// one-type space whose choice i is i+1 A9 nodes and point i is admitted
// with choice i selected, so a staircase point's selection block names
// its input point and the output walk materializes the Config that
// point carries.
func staircaseRun(t *testing.T, pts []Point, check func(e *fastEngine, n int)) *fastEngine {
	t.Helper()
	a9, err := hardware.DefaultCatalog().Lookup("A9")
	if err != nil {
		t.Fatal(err)
	}
	sp := &spaceSoA{nTypes: 1, byRank: []int32{0}}
	full := &model.UnitCalc{Type: a9, Cores: a9.Cores, Freq: a9.FMax()}
	for i := range pts {
		sp.calcs = append(sp.calcs, full)
		sp.count = append(sp.count, int32(i+1))
		pts[i].Config = cluster.MustConfig(cluster.FullNodes(a9, i+1))
	}
	e := &fastEngine{sp: sp, sel: []int32{-1}}
	for i, p := range pts {
		e.sel[0] = int32(i)
		e.admit(p.Time, p.Energy, 0)
		check(e, i+1)
	}
	return e
}

// staircaseIndices returns the input index behind each staircase
// point, in staircase order.
func staircaseIndices(e *fastEngine) []int {
	out := make([]int, len(e.front))
	for k, p := range e.front {
		out[k] = int(e.sels[p.sel])
	}
	return out
}

// checkStaircaseShape asserts time strictly ascending and energy
// strictly descending.
func checkStaircaseShape(t *testing.T, label string, e *fastEngine) {
	t.Helper()
	for k := 1; k < len(e.front); k++ {
		a, b := e.front[k-1], e.front[k]
		if !(a.t < b.t) || !(a.e > b.e) {
			t.Fatalf("%s: staircase not strictly (time up, energy down) at %d: (%v,%v) then (%v,%v)",
				label, k, a.t, a.e, b.t, b.e)
		}
	}
}

// nonDominatedPrefix is the brute-force oracle: the indices of pts[:n]
// that no point strictly dominates and no earlier point duplicates,
// ordered by time.
func nonDominatedPrefix(pts []Point, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		keep := true
		for j := 0; j < n && keep; j++ {
			if j == i {
				continue
			}
			dup := j < i && pts[j].Time == pts[i].Time && pts[j].Energy == pts[i].Energy
			keep = !dominates(pts[j], pts[i]) && !dup
		}
		if keep {
			out = append(out, i)
		}
	}
	// Kept points have distinct times; insertion-sort them by time.
	for a := 1; a < len(out); a++ {
		for b := a; b > 0 && pts[out[b]].Time < pts[out[b-1]].Time; b-- {
			out[b], out[b-1] = out[b-1], out[b]
		}
	}
	return out
}

// checkOutputWalk asserts the engine's output walk equals Frontier over
// every input point, config identity included.
func checkOutputWalk(t *testing.T, label string, e *fastEngine, pts []Point) {
	t.Helper()
	w := &walkRecord{front: e.front, sels: e.sels}
	got := w.frontier(e.sp, model.NewTable(staircaseWorkload(t), model.Options{}))
	frontiersEqual(t, label+" output walk", got, Frontier(pts))
}

// staircaseWorkload is the profile the output walk materializes
// Results with; only the configs and scalars are compared.
func staircaseWorkload(t *testing.T) *workload.Profile {
	t.Helper()
	reg, err := workload.PaperRegistry(hardware.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	wl, err := reg.Lookup(workload.NameEP)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestStaircaseKeepsNonDominated pins the admission rules on fixed
// streams: strict dominance evicts, exact duplicates keep their first
// representative, and one admission can evict a whole run.
func TestStaircaseKeepsNonDominated(t *testing.T) {
	for _, tc := range []struct {
		label string
		pts   []Point
		want  []int
	}{
		{
			label: "dominated and duplicate",
			pts: []Point{
				mkPoint(2, 5),
				mkPoint(1, 10),
				mkPoint(2, 5), // duplicate: the first representative stays
				mkPoint(3, 6), // dominated by (2,5)
				mkPoint(2, 7), // dominated by (2,5)
				mkPoint(4, 4),
			},
			want: []int{1, 0, 5},
		},
		{
			label: "run eviction",
			pts: []Point{
				mkPoint(3, 9),
				mkPoint(4, 8),
				mkPoint(5, 7),
				mkPoint(6, 3),
				mkPoint(2, 7), // evicts (3,9), (4,8) and (5,7)
			},
			want: []int{4, 3},
		},
		{
			label: "same time, lower energy",
			pts: []Point{
				mkPoint(1, 9),
				mkPoint(2, 6),
				mkPoint(2, 4), // replaces (2,6) in its time class
				mkPoint(3, 5), // dominated by (2,4)
			},
			want: []int{0, 2},
		},
	} {
		e := staircaseRun(t, tc.pts, func(*fastEngine, int) {})
		checkStaircaseShape(t, tc.label, e)
		if got := staircaseIndices(e); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: staircase holds points %v, want %v", tc.label, got, tc.want)
		}
		checkOutputWalk(t, tc.label, e, tc.pts)
	}
}

// TestStaircaseProperty: over seeded random point streams drawn from a
// small grid (so time ties, energy ties and exact duplicates are
// common), with 1-ulp energy neighbours to exercise Frontier's noise
// margin, the staircase after every admission is strictly (time up,
// energy down) and equals the non-dominated set of the prefix with the
// first duplicate kept; the final output walk equals Frontier over the
// whole stream, config identity included.
func TestStaircaseProperty(t *testing.T) {
	streams := 300
	if testing.Short() {
		streams = 60
	}
	for s := 0; s < streams; s++ {
		rng := stats.NewRNG(0x5CA1AB1E + uint64(s))
		n := 1 + rng.Intn(64)
		pts := make([]Point, n)
		for i := range pts {
			switch {
			case i > 0 && rng.Intn(5) == 0:
				pts[i] = pts[rng.Intn(i)] // exact duplicate
			case i > 0 && rng.Intn(8) == 0:
				prev := pts[rng.Intn(i)]
				pts[i] = mkPoint(float64(prev.Time)+float64(rng.Intn(3)),
					math.Nextafter(float64(prev.Energy), 0))
			default:
				pts[i] = mkPoint(float64(1+rng.Intn(12)), float64(1+rng.Intn(12)))
			}
		}
		label := fmt.Sprintf("stream %d (%d points)", s, n)
		e := staircaseRun(t, pts, func(e *fastEngine, n int) {
			checkStaircaseShape(t, label, e)
			got, want := staircaseIndices(e), nonDominatedPrefix(pts, n)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: after %d admissions the staircase holds %v, want %v",
					label, n, got, want)
			}
		})
		checkOutputWalk(t, label, e, pts)
	}
}
