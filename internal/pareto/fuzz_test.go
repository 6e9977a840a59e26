package pareto

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/units"
	"repro/internal/workload"
)

// fuzzInput decodes FuzzFrontierSweep's bytes; past the end it reads
// zeros, so every input decodes.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) pick(n int) int { return int(in.byte()) % n }

// value decodes one magnitude around unit: zero, a negative, a value
// near float64's smallest or largest, or an ordinary one. Mantissas
// step by 1/16, so distinct inputs often decode to equal values and
// equal-time, equal-energy configurations are common.
func (in *fuzzInput) value(unit float64) float64 {
	kind, m := in.byte(), 1+float64(in.byte()%64)/16
	switch kind % 8 {
	case 0:
		return 0
	case 1:
		return -m * unit
	case 2:
		return m * 1e-300
	case 3:
		return m * 1e300
	}
	return m * unit * math.Ldexp(1, int(kind>>3)%9-4)
}

// fuzzSweep is one decoded sweep: the limits, workload and options a
// table is swept under.
type fuzzSweep struct {
	limits  []cluster.Limit
	budget  *cluster.PowerBudget
	noPrune bool
}

// decodeFuzzSpace decodes 1-3 custom node types, their limits, a
// workload with a demand vector on some of them, and an optional
// budget. Frequency restrictions here are prefixes of the type's own
// ladder; unbuildable decodes the limits validation rejects.
func decodeFuzzSpace(in *fuzzInput) (fuzzSweep, *workload.Profile) {
	nTypes := 1 + in.pick(3)
	wl := workload.NewProfile("fuzz", workload.DomainSynthetic, "units", in.value(1e6))
	if in.pick(4) == 0 {
		wl.IORate = units.PerSecond(in.value(1e3))
	}
	var s fuzzSweep
	for i := range nTypes {
		f0 := in.value(1e9)
		steps := []units.Hertz{units.Hertz(f0)}
		if in.pick(2) == 0 {
			steps = append(steps, units.Hertz(f0*(1+float64(1+in.pick(8))/8)))
		}
		nt := &hardware.NodeType{
			Name:         fmt.Sprintf("T%d", i),
			Cores:        []int{1, 2, 3, 1, 2, 3, 0, -1}[in.pick(8)],
			Freq:         hardware.DVFS{Steps: steps, DynamicExponent: in.value(2)},
			NICBandwidth: units.BytesPerSecond(in.value(1e9)),
			Power: hardware.PowerParams{
				CPUActPerCore: units.Watts(in.value(8)), CPUStallPerCore: units.Watts(in.value(4)),
				Mem: units.Watts(in.value(4)), Net: units.Watts(in.value(2)), Idle: units.Watts(in.value(16)),
			},
			NominalPeak: units.Watts(in.value(32)),
		}
		l := cluster.Limit{Type: nt, MaxNodes: []int{1, 2, 3, 1, 2, 3, 0, -1}[in.pick(8)],
			MaxCores: in.pick(4), FixCoresAndFreq: in.pick(4) == 0}
		if in.pick(3) == 0 {
			l.Freqs = steps[:1]
		}
		s.limits = append(s.limits, l)
		if in.pick(6) == 0 {
			continue // no demand vector: the type's configurations are skipped
		}
		d := workload.Demand{
			CoreCycles: units.Cycles(in.value(1e8)), MemCycles: units.Cycles(in.value(1e8)),
			IOBytes: units.Bytes(in.value(1e4)), Intensity: in.value(1),
		}
		if in.pick(3) == 0 {
			d.IOReqs = in.value(4)
		}
		// SetDemand rejects a negative component or intensity, which
		// leaves the type without a demand vector too.
		_ = wl.SetDemand(nt.Name, d)
	}
	if in.pick(2) == 0 {
		s.budget = &cluster.PowerBudget{Cap: units.Watts(in.value(128)),
			Switched: []string{"", "T0", "T1", "T2"}[in.pick(4)],
			Switch: hardware.SwitchModel{PowerPerSwitch: units.Watts(in.value(16)),
				NodesPerSwitch: []int{8, 1, 2, 0, -1}[in.pick(5)]}}
	}
	s.noPrune = in.pick(2) == 0
	return s, wl
}

// variant returns a second sweep of the space that differs from s in
// one field the table's space slot keys on, or only in the budget's
// cap, which it does not key on.
func (s fuzzSweep) variant(in *fuzzInput) fuzzSweep {
	v := fuzzSweep{limits: append([]cluster.Limit(nil), s.limits...), noPrune: s.noPrune}
	if s.budget != nil {
		b := *s.budget
		v.budget = &b
	}
	budget := func() *cluster.PowerBudget {
		if v.budget == nil {
			v.budget = &cluster.PowerBudget{Cap: units.Watts(in.value(128))}
		}
		return v.budget
	}
	l := &v.limits[in.pick(len(v.limits))]
	switch in.pick(8) {
	case 0:
		v.noPrune = !v.noPrune
	case 1:
		budget().Switch.PowerPerSwitch = units.Watts(in.value(16))
	case 2:
		budget().Switched = []string{"", "T0", "T1", "T2"}[in.pick(4)]
	case 3:
		if v.budget != nil {
			v.budget = nil
		} else {
			budget()
		}
	case 4:
		l.MaxNodes += 1 - 2*in.pick(2)
	case 5:
		budget().Cap = units.Watts(in.value(128))
	case 6:
		l.FixCoresAndFreq = !l.FixCoresAndFreq
	case 7:
		l.MaxCores = in.pick(4)
	}
	return v
}

// unbuildable sometimes makes s's limits ones cluster.ValidateLimits
// rejects: a limit lists a frequency that may be off its type's ladder,
// or a type gets a second limit. Zero bytes change nothing.
func (s *fuzzSweep) unbuildable(in *fuzzInput) {
	l := &s.limits[in.pick(len(s.limits))]
	switch in.pick(4) {
	case 1:
		f := units.Hertz(in.value(1e9))
		if steps := l.Type.Freq.Steps; in.pick(2) == 0 {
			f = steps[in.pick(len(steps))]
		}
		l.Freqs = append(l.Freqs[:len(l.Freqs):len(l.Freqs)], f)
	case 2:
		s.limits = append(s.limits, *l)
	}
}

// fuzzAnnotation is a latency annotation of a fuzzed frontier.
type fuzzAnnotation struct {
	spec queueing.Spec
	u, p float64
}

// decodeFuzzAnnotation decodes the M/D/1 default, M/G/1 with an SCV or
// M/M/k with a server count, at a utilization in (0,1) and a
// percentile in [0,100), either of which is sometimes any value
// instead. Zero bytes decode M/D/1 at u = 1/257 and p = 0.
func decodeFuzzAnnotation(in *fuzzInput) fuzzAnnotation {
	var a fuzzAnnotation
	switch in.pick(3) {
	case 1:
		a.spec = queueing.Spec{Kind: queueing.KindMG1, SCV: in.value(1)}
	case 2:
		a.spec = queueing.Spec{Kind: queueing.KindMMK, Servers: in.pick(10) - 1}
	}
	a.u = (1 + float64(in.byte())) / 257
	if in.pick(8) == 7 {
		a.u = in.value(0.5)
	}
	a.p = float64(in.byte()%100) + float64(in.byte())/256
	if in.pick(8) == 7 {
		a.p = in.value(50)
	}
	return a
}

// checkFuzzAnnotation annotates a frontier: each point must carry its
// own kernel's answer, spec.Build(u, t).ResponsePercentile(p), bit for
// bit, or the error must name the first point that has none.
func checkFuzzAnnotation(t *testing.T, label string, front []Point, a fuzzAnnotation) {
	t.Helper()
	got, err := AnnotateLatencies(context.Background(), front, a.u, a.p, a.spec, 0)
	if a.spec.Validate() != nil || !(a.u > 0 && a.u < 1) || !(a.p >= 0 && a.p < 100) {
		if err == nil {
			t.Fatalf("%s: annotation %+v accepted", label, a)
		}
		return
	}
	for i, pt := range front {
		tm := float64(pt.Result.Time)
		k, werr := a.spec.Build(a.u, tm)
		var want float64
		if werr == nil {
			want, werr = k.ResponsePercentile(a.p)
		}
		if tm <= 0 || werr != nil {
			if err == nil || !strings.Contains(err.Error(), pt.Config.String()) {
				t.Fatalf("%s: point %d (%s) has no latency (%v), annotation error %v", label, i, pt.Config, werr, err)
			}
			return
		}
		if err == nil && math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: point %d (%s) annotated %.17g, own solve %.17g", label, i, pt.Config, got[i], want)
		}
	}
	if err != nil {
		t.Fatalf("%s: annotation error %v, yet every point solves", label, err)
	}
}

// checkFuzzSweep asserts one fast sweep against the reference sweep of
// the same space: both fail with the same error, or the frontiers are
// bitwise equal, configs included, and the accounting partitions the
// space as the reference's does field by field (NoPrune evaluates
// exactly what the reference evaluates and prunes nothing); the fast
// frontier is then annotated with latencies.
func checkFuzzSweep(t *testing.T, label string, s fuzzSweep, wl *workload.Profile, table *model.Table, ann fuzzAnnotation, want []Point, wantSt SweepStats, wantErr error) {
	t.Helper()
	var st SweepStats
	got, err := FrontierSweep(s.limits, wl, model.Options{}, SweepOptions{Budget: s.budget, NoPrune: s.noPrune, Table: table, Stats: &st})
	if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, reference error %v", label, err, wantErr)
	}
	if err != nil {
		return
	}
	frontiersBitIdentical(t, label, got, want)
	checkFuzzAnnotation(t, label, got, ann)
	if st.Skipped != wantSt.Skipped || st.Filtered != wantSt.Filtered || st.Evaluated+st.Pruned != wantSt.Evaluated ||
		s.noPrune && st != wantSt {
		t.Fatalf("%s: stats %+v, reference %+v", label, st, wantSt)
	}
	if sum := st.Evaluated + st.Skipped + st.Filtered + st.Pruned; sum != int64(cluster.SpaceSize(s.limits)) {
		t.Fatalf("%s: evaluated+skipped+filtered+pruned = %d, space %d", label, sum, cluster.SpaceSize(s.limits))
	}
}

// FuzzFrontierSweep is the frontier engine's differential target. It
// decodes 1-3 custom node types (power terms, demands, core and
// frequency ladders and node counts, with zero, negative, tiny and
// huge values, so the certificate's preconditions both hold and fail),
// their limits, an optional budget and NoPrune, and a variant B that
// differs in one field the table's space slot keys on (or only in the
// cap); then, for A, sometimes a frequency off the ladder or a second
// limit on one type, and a latency annotation. It sweeps one shared
// table A, A, B, A — so the slot both hits and misses — then A on a
// table of its own. Every sweep must return the serial oracle's
// frontier bit for bit, configs included, with the oracle's accounting,
// or the oracle's error; every frontier's annotation must match each
// point's own solve; nothing may panic.
func FuzzFrontierSweep(f *testing.F) {
	f.Add([]byte{})
	// Two types of ordinary magnitudes, NoPrune: 26 configurations, 16
	// of them certified.
	const twoTypes = "\x04\x1c\xc7\xd84\x1c\f<<\xdd$4<U\x1c$(\x04\x1c<\x04<\x1c\f\x99$\x1c,\f\x04<\xbe\f\f$D`\xfc\x144\xd64\x8b\xca$$$" +
		"\f\x04,\x1c4\x14\x0444\x04\f\xe0\xfcd4\x14,\x92,\x02\x1c\x14\x1c\xe54\x0e\x14\x04$\xc6ѕ\x1aD$\xbf"
	f.Add([]byte(twoTypes))
	// The same types under a switched budget, NoPrune, and B with
	// another switch model: A filters 12 configurations, B 16.
	f.Add([]byte("\x04\x1c\xc7\xd84\x1c\f<<\xdd$4<U\x1c$(\x04\x1c<\x04<\x1c\f\x99$\x1c,\f\x04<\xbe\f\f$D`\xfc\x144\xd64\x8b\xca$$$" +
		"\f\x04,\x1c4\x14\x0444\x04\f\xe0\xfcd4\x14,\x92,\x02\x1c\x14\x1c\xe5}HD\x04Dn$\xe6\xfa4\x96ΠЩD"))
	// Two types, reduced: 19 of 44 configurations walked, 12 of them
	// certified.
	const reduced = "\x04\xf6\f\xde$wD\x1cD\x144\f\x04\x8d$D\x14$D\xf7$,\x04$`Q\xb0\x8dDm\x1c`D\x1c\x1c$\x1c4D<d\xbe\x11\xa8" +
		"\x1c,$\xa2D<<D<\x8b\x14$\xac,4\x14<\xf7\a\x14\xf9e,\x1c44\x83\x14\x04\x1c\xb75\x14<\x04"
	f.Add([]byte(reduced))
	// The same space with T0 limited to 62.5 MHz, off its ladder: both
	// sweeps fail validation with one error.
	f.Add([]byte(reduced + "\x00\x01\x05\x00\x01"))
	// T0 limited to its upper step alone, a restriction that is not a
	// prefix of its ladder, and the 4-point frontier annotated with
	// M/G/1 (SCV 1/16) at u = 129/257 and p = 95.
	f.Add([]byte(reduced + "\x00\x01\x00\x00\x00\x01" + "\x01\x05\x00\x80\x00\x5f\x00\x00"))
	// The first space with a second limit on T1: both sweeps fail
	// validation with one error.
	f.Add([]byte(twoTypes + "\x01\x02"))
	// The first space annotated with M/M/3 at u = 193/257 and p = 99.5.
	f.Add([]byte(twoTypes + "\x00\x00" + "\x02\x04\xc0\x00\x63\x80\x00"))
	// 3 T0 at 2 cores and 2 T0 at 3 cores, each beside 1 T1, have the
	// same time in real arithmetic and the model's differ by one ulp:
	// the certificate's margin keeps the faster, later one.
	f.Add([]byte("\x04\xf6\f\xde$wD\x1c2\x144\f\x04\x8d$D\x14$D\xf7$,\x04$`Q\xb0\x8dDm\x1c`" +
		"00007017001020700000000000000000100$900201100$0"))
	// A one-node and a two-node mix whose NIC time overflows to +Inf, so
	// 0 W times it is a NaN energy: neither NaN point may join the
	// staircase or the frontier.
	f.Add([]byte("0701C0001202000000000000000001000070201100$"))
	// Two frequencies whose energies differ by 1e-301 J in real
	// arithmetic and both underflow to 0 J: the reference keeps the
	// first of the tie, so the reduction must not drop it.
	f.Add([]byte("12012000020200000200000000000100000000120000202000002000000000111002A20200000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		a, wl := decodeFuzzSpace(&in)
		b := a.variant(&in)
		a.unbuildable(&in)
		ann := decodeFuzzAnnotation(&in)
		for _, s := range []fuzzSweep{a, b} {
			if n := cluster.SpaceSize(s.limits); n > 8192 {
				t.Skipf("space of %d configurations", n)
			}
		}
		oracle := func(s fuzzSweep) ([]Point, SweepStats, error) {
			var st SweepStats
			front, err := frontierSweepReference(s.limits, wl, model.Options{}, SweepOptions{Budget: s.budget, Stats: &st})
			return front, st, err
		}
		wantA, stA, errA := oracle(a)
		wantB, stB, errB := oracle(b)
		table := model.NewTable(wl, model.Options{})
		for i, s := range []fuzzSweep{a, a, b, a} {
			want, st, err := wantA, stA, errA
			if i == 2 {
				want, st, err = wantB, stB, errB
			}
			checkFuzzSweep(t, fmt.Sprintf("shared table, sweep %d", i+1), s, wl, table, ann, want, st, err)
		}
		checkFuzzSweep(t, "private table", a, wl, nil, ann, wantA, stA, errA)
	})
}
