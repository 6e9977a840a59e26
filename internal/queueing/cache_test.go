package queueing

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// TestPercentileCacheCounters: one cold query misses, repeats hit, and a
// different service time at the same utilization hits too (the cache is
// keyed on the normalized queue).
func TestPercentileCacheCounters(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	resetPercentileCache()

	// An unusual rho keeps this test independent of what other tests
	// have already cached (the memo is process-wide by design).
	const rho = 0.731592653589793
	q1, err := NewMD1FromUtilization(rho, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q1.WaitPercentile(95); err != nil {
		t.Fatal(err)
	}
	misses := reg.Counter("queueing.percentile_cache_misses").Value()
	hits := reg.Counter("queueing.percentile_cache_hits").Value()
	if misses != 1 || hits != 0 {
		t.Fatalf("cold query: hits=%d misses=%d, want 0/1", hits, misses)
	}

	if _, err := q1.WaitPercentile(95); err != nil {
		t.Fatal(err)
	}
	q2, err := NewMD1FromUtilization(rho, 42.5) // same rho, different D
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.WaitPercentile(95); err != nil {
		t.Fatal(err)
	}
	misses = reg.Counter("queueing.percentile_cache_misses").Value()
	hits = reg.Counter("queueing.percentile_cache_hits").Value()
	if misses != 1 || hits != 2 {
		t.Errorf("after repeat + rescaled query: hits=%d misses=%d, want 2/1", hits, misses)
	}

	if got := reg.Counter("queueing.percentile_searches").Value(); got != 3 {
		t.Errorf("percentile_searches = %d, want 3", got)
	}
}

// TestPercentileCacheCutsCDFCalls: the second query at the same rho must
// not touch the CDF at all — the whole point of the memo.
func TestPercentileCacheCutsCDFCalls(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	resetPercentileCache()

	q := MD1{Lambda: 0.812345, D: 1}
	if _, err := q.WaitPercentile(95); err != nil {
		t.Fatal(err)
	}
	cold := reg.Counter("queueing.wait_cdf_calls").Value()
	if cold == 0 {
		t.Fatal("cold search issued no CDF calls")
	}
	if _, err := q.WaitPercentile(95); err != nil {
		t.Fatal(err)
	}
	if warm := reg.Counter("queueing.wait_cdf_calls").Value(); warm != cold {
		t.Errorf("warm search issued %d extra CDF calls", warm-cold)
	}
}

// TestPercentileCacheConcurrent hammers the memo from many goroutines
// over a small (rho, p) set — the singleflight contention path — and
// cross-checks every answer against the uncached reference search. Run
// under -race this doubles as the cache's data-race test.
func TestPercentileCacheConcurrent(t *testing.T) {
	resetPercentileCache()
	rhos := []float64{0.31, 0.54, 0.77, 0.9}
	ps := []float64{50, 90, 95, 99}

	want := make(map[[2]float64]float64)
	for _, rho := range rhos {
		for _, p := range ps {
			q := MD1{Lambda: rho, D: 1}
			w, err := q.waitPercentileReference(p)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]float64{rho, p}] = w
		}
	}

	const workers = 32
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				rho := rhos[(w+i)%len(rhos)]
				p := ps[(w*7+i)%len(ps)]
				// Vary D so goroutines enter through differently-scaled
				// queues that share normalized cache entries.
				d := 1 + float64((w+i)%3)
				q := MD1{Lambda: rho / d, D: d}
				got, err := q.WaitPercentile(p)
				if err != nil {
					errc <- err
					return
				}
				ref := want[[2]float64{rho, p}] * d
				if math.Abs(got-ref) > 1e-8*math.Max(1, ref) {
					t.Errorf("rho=%g p=%g D=%g: got %.12g want %.12g", rho, p, d, got, ref)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestPercentileCacheHitPathZeroAlloc: a warm percentile query with no
// request scope attached must not allocate. The request-scoped
// observability layer rides on this — epserve attributes cache hits into
// a RequestContext only when one is present, and the unscoped kernel
// path (batch sweeps, CLI tools) has to stay allocation-free.
func TestPercentileCacheHitPathZeroAlloc(t *testing.T) {
	telemetry.SetGlobal(nil) // nil-registry no-op instruments, as in CLI default
	resetPercentileCache()
	defer resetPercentileCache()

	q := MD1{Lambda: 0.847213 / 3.5, D: 3.5}        // rho = 0.847213
	if _, err := q.WaitPercentile(99); err != nil { // warm the memo
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := q.WaitPercentile(99); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm WaitPercentile allocated %.1f times per call, want 0", allocs)
	}

	// The raw cache hit path itself (what every warm query reduces to)
	// must also be 0-alloc with a nil RequestContext.
	allocs = testing.AllocsPerRun(1000, func() {
		benchSink = cachedNormalizedPercentile(0.847213, 0.99, nil)
	})
	if allocs != 0 {
		t.Fatalf("warm cachedNormalizedPercentile allocated %.1f times per call, want 0", allocs)
	}
}

// TestPercentileCacheResetOnOverflow: filling any shard past its bound
// drops the generation instead of growing without limit, and queries
// keep answering.
func TestPercentileCacheResetOnOverflow(t *testing.T) {
	resetPercentileCache()
	defer resetPercentileCache()
	// Simulate a full cache rather than solving 32k percentiles: every
	// shard at its bound, so whichever stripe the next miss lands in
	// overflows.
	gen := pctCache.Load()
	for i := range gen.shards {
		gen.shards[i].size.Store(pctShardMaxEntries)
	}
	q := MD1{Lambda: 0.6, D: 1}
	w1, err := q.WaitPercentile(95)
	if err != nil {
		t.Fatal(err)
	}
	if n := pctCache.Load().size(); n > 2 {
		t.Errorf("cache size %d after overflow reset", n)
	}
	w2, err := q.WaitPercentile(95)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Errorf("answers diverged across reset: %g vs %g", w1, w2)
	}
}

// TestPercentileCacheShardSpread: a realistic utilization grid must not
// collapse onto one stripe — the whole point of sharding is spreading
// the lock. A loose bound (no empty majority, no stripe holding more
// than half the keys) keeps the test robust to hash tweaks.
func TestPercentileCacheShardSpread(t *testing.T) {
	resetPercentileCache()
	defer resetPercentileCache()
	gen := pctCache.Load()
	counts := make(map[*pctShard]int)
	total := 0
	for u := 0.05; u < 0.995; u += 0.005 {
		for _, p := range []float64{50, 90, 95, 99, 99.9} {
			key := pctKey{rho: quantizeRho(u), target: math.Float64bits(p / 100)}
			counts[gen.shard(key)]++
			total++
		}
	}
	if len(counts) < pctShardCount/2 {
		t.Fatalf("grid of %d keys landed in only %d/%d shards", total, len(counts), pctShardCount)
	}
	for _, n := range counts {
		if n > total/2 {
			t.Fatalf("one shard holds %d of %d keys", n, total)
		}
	}
}

// TestPercentileCacheGenerationInvariants: entries created in a
// generation are counted in that generation; after a reset the new
// generation starts empty and recounts from zero, and per-shard sizes
// agree with the actual map sizes.
func TestPercentileCacheGenerationInvariants(t *testing.T) {
	resetPercentileCache()
	defer resetPercentileCache()
	rhos := []float64{0.11, 0.23, 0.37, 0.41, 0.59, 0.67, 0.79, 0.83}
	for _, rho := range rhos {
		q := MD1{Lambda: rho, D: 1}
		if _, err := q.WaitPercentile(95); err != nil {
			t.Fatal(err)
		}
		if _, err := q.WaitPercentile(99); err != nil {
			t.Fatal(err)
		}
	}
	gen := pctCache.Load()
	var mapped int64
	for i := range gen.shards {
		sh := &gen.shards[i]
		sh.mu.RLock()
		got := int64(len(sh.m))
		sh.mu.RUnlock()
		if counted := sh.size.Load(); counted != got {
			t.Errorf("shard %d: size counter %d, map holds %d", i, counted, got)
		}
		mapped += got
	}
	if want := int64(2 * len(rhos)); mapped != want || gen.size() != want {
		t.Errorf("generation holds %d entries (counted %d), want %d", mapped, gen.size(), want)
	}

	resetPercentileCache()
	if n := pctCache.Load().size(); n != 0 {
		t.Errorf("fresh generation reports size %d, want 0", n)
	}
	// Old-generation loaders must count against the old generation only.
	gen.shards[0].size.Add(1)
	if n := pctCache.Load().size(); n != 0 {
		t.Errorf("old-generation increment leaked into fresh generation (size %d)", n)
	}
}

// TestPercentileCacheShardHammer drives many goroutines across a rho
// grid wide enough to hit every stripe, interleaved with generation
// resets — under -race this is the sharded cache's data-race test, and
// the answers are cross-checked against the uncached reference.
func TestPercentileCacheShardHammer(t *testing.T) {
	resetPercentileCache()
	defer resetPercentileCache()
	rhos := make([]float64, 24)
	for i := range rhos {
		rhos[i] = 0.05 + 0.9*float64(i)/float64(len(rhos)-1)
	}
	ps := []float64{50, 90, 95, 99}
	want := make(map[[2]float64]float64)
	for _, rho := range rhos {
		for _, p := range ps {
			q := MD1{Lambda: rho, D: 1}
			w, err := q.waitPercentileReference(p)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]float64{rho, p}] = w
		}
	}
	resetPercentileCache() // hammer from cold so misses and hits interleave

	const workers = 24
	iters := 60
	if testing.Short() {
		iters = 15
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if w == 0 && i%20 == 10 {
					resetPercentileCache() // generations swap mid-traffic
				}
				rho := rhos[(w*5+i)%len(rhos)]
				p := ps[(w+i)%len(ps)]
				q := MD1{Lambda: rho, D: 1}
				got, err := q.WaitPercentile(p)
				if err != nil {
					t.Error(err)
					return
				}
				ref := want[[2]float64{rho, p}]
				if math.Abs(got-ref) > 1e-8*math.Max(1, ref) {
					t.Errorf("rho=%g p=%g: got %.12g want %.12g", rho, p, got, ref)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPercentileCacheCrossShardAttribution: one request whose batch
// spans many shards must still attribute every hit and miss to its own
// RequestContext, and the split must match the process-global counters.
func TestPercentileCacheCrossShardAttribution(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	resetPercentileCache()
	defer resetPercentileCache()

	// 12 percentile targets at one rho spread across stripes (the target
	// participates in the shard hash).
	ps := []float64{40, 50, 60, 70, 80, 85, 90, 92, 95, 97, 99, 99.5}
	q := MD1{Lambda: 0.654321, D: 1}

	rc := telemetry.NewRequestContext("", "test")
	ctx := telemetry.WithRequest(context.Background(), rc)
	if _, err := q.WaitPercentilesContext(ctx, ps); err != nil {
		t.Fatal(err)
	}
	if hits, misses := rc.Attr(telemetry.AttrCacheHits), rc.Attr(telemetry.AttrCacheMisses); hits != 0 || misses != int64(len(ps)) {
		t.Fatalf("cold cross-shard batch: rc hits=%d misses=%d, want 0/%d", hits, misses, len(ps))
	}

	rc2 := telemetry.NewRequestContext("", "test")
	ctx2 := telemetry.WithRequest(context.Background(), rc2)
	if _, err := q.WaitPercentilesContext(ctx2, ps); err != nil {
		t.Fatal(err)
	}
	if hits, misses := rc2.Attr(telemetry.AttrCacheHits), rc2.Attr(telemetry.AttrCacheMisses); hits != int64(len(ps)) || misses != 0 {
		t.Fatalf("warm cross-shard batch: rc hits=%d misses=%d, want %d/0", hits, misses, len(ps))
	}
	gHits := reg.Counter("queueing.percentile_cache_hits").Value()
	gMisses := reg.Counter("queueing.percentile_cache_misses").Value()
	if gHits != uint64(len(ps)) || gMisses != uint64(len(ps)) {
		t.Fatalf("global counters hits=%d misses=%d, want %d/%d", gHits, gMisses, len(ps), len(ps))
	}
}

// TestPercentileCacheNoCrossKernelBleed is the regression test for the
// kernel-identity extension of the cache key: the same (rho, p) through
// different kernels must produce different results from different
// cells, each independently cached — never one kernel's percentile
// served to another. Before kind/shape joined pctKey, the M/G/1 mixture
// solve at (rho, p) would have collided with the M/D/1 entry.
func TestPercentileCacheNoCrossKernelBleed(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	resetPercentileCache()
	defer resetPercentileCache()

	const (
		rho = 0.687194176253
		d   = 1.0
		p   = 95.0
	)
	md1, err := NewMD1FromUtilization(rho, d)
	if err != nil {
		t.Fatal(err)
	}
	mg1, err := NewMG1FromUtilization(rho, d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mg2, err := NewMG1FromUtilization(rho, d, 0.25)
	if err != nil {
		t.Fatal(err)
	}

	wMD1, err := md1.WaitPercentile(p)
	if err != nil {
		t.Fatal(err)
	}
	wMG1, err := mg1.WaitPercentile(p)
	if err != nil {
		t.Fatal(err)
	}
	wMG2, err := mg2.WaitPercentile(p)
	if err != nil {
		t.Fatal(err)
	}
	rMG1, err := mg1.ResponsePercentile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Same (rho, p), different kernel identity: the results must differ
	// materially (the SCV = 0.5 mixture is strictly slower than M/D/1),
	// including between two shapes of the same kernel family and between
	// the wait and sojourn curves of one kernel.
	if wMG1 <= wMD1 {
		t.Fatalf("mg1(0.5) wait %.12g not above md1 %.12g at same (rho, p)", wMG1, wMD1)
	}
	if wMG2 <= wMD1 || wMG2 >= wMG1 {
		t.Fatalf("mg1(0.25) wait %.12g not strictly between md1 %.12g and mg1(0.5) %.12g", wMG2, wMD1, wMG1)
	}
	if rMG1 <= wMG1 {
		t.Fatalf("mg1 response %.12g not above its wait %.12g", rMG1, wMG1)
	}

	// Warm repeats of every variant must be pure cache hits returning the
	// identical bits.
	missesBefore := reg.Counter("queueing.percentile_cache_misses").Value()
	hitsBefore := reg.Counter("queueing.percentile_cache_hits").Value()
	for i := 0; i < 2; i++ {
		if w, _ := md1.WaitPercentile(p); w != wMD1 {
			t.Fatalf("warm md1 wait %.17g != %.17g", w, wMD1)
		}
		if w, _ := mg1.WaitPercentile(p); w != wMG1 {
			t.Fatalf("warm mg1 wait %.17g != %.17g", w, wMG1)
		}
		if w, _ := mg2.WaitPercentile(p); w != wMG2 {
			t.Fatalf("warm mg1(0.25) wait %.17g != %.17g", w, wMG2)
		}
		if r, _ := mg1.ResponsePercentile(p); r != rMG1 {
			t.Fatalf("warm mg1 response %.17g != %.17g", r, rMG1)
		}
	}
	if got := reg.Counter("queueing.percentile_cache_misses").Value(); got != missesBefore {
		t.Errorf("warm kernel repeats added %d cache misses", got-missesBefore)
	}
	if got := reg.Counter("queueing.percentile_cache_hits").Value(); got != hitsBefore+8 {
		t.Errorf("warm kernel repeats: hits %d, want %d", got, hitsBefore+8)
	}
}
