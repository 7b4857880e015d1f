package hot

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/particle"
	"repro/internal/vec"
)

// TestBatchedBranchBitwiseEqualsRing is the equivalence property of
// the batched exchange: the prefetched records are the exact bytes the
// on-demand fetch path would have delivered, and the traversal is
// untouched, so ring and batched modes must agree bit for bit — not
// just to rounding — on every output, for vortex and Coulomb alike.
func TestBatchedBranchBitwiseEqualsRing(t *testing.T) {
	full := particle.ClusteredVortexSheet(400)
	for _, p := range []int{1, 2, 4, 7} {
		ring := defaultCfg(0.4)
		bat := ring
		bat.Branch = BranchBatched
		vr, sr, _ := runEval(t, full, p, ring)
		vb, sb, _ := runEval(t, full, p, bat)
		for i := range vr {
			if vr[i] != vb[i] || sr[i] != sb[i] {
				t.Fatalf("p=%d particle %d: ring (%v, %v) != batched (%v, %v)",
					p, i, vr[i], sr[i], vb[i], sb[i])
			}
		}
	}
}

// runCoulomb is runEval for the Coulomb discipline.
func runCoulomb(t *testing.T, full *particle.System, p int, cfg Config) []float64 {
	t.Helper()
	n := full.N()
	pot := make([]float64, n)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		local := BlockPartition(full, c.Rank(), p)
		lp := make([]float64, local.N())
		lf := make([]vec.Vec3, local.N())
		s := New(c, cfg)
		s.Coulomb(local, lp, lf)
		copy(pot[n*c.Rank()/p:], lp)
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pot
}

func TestBatchedBranchCoulombBitwise(t *testing.T) {
	full := particle.ClusteredVortexSheet(300)
	for i := range full.Particles {
		full.Particles[i].Charge = 1.0 / float64(full.N())
	}
	for _, p := range []int{2, 5} {
		ring := defaultCfg(0.4)
		ring.Eps = 1e-3
		bat := ring
		bat.Branch = BranchBatched
		pr := runCoulomb(t, full, p, ring)
		pb := runCoulomb(t, full, p, bat)
		for i := range pr {
			if pr[i] != pb[i] {
				t.Fatalf("p=%d particle %d: ring pot %v != batched %v", p, i, pr[i], pb[i])
			}
		}
	}
}

// TestBatchedBranchPrefetchCoversFetches checks the point of the
// pruned prefetch: the conservative box MAC ships a superset of every
// cell the receiver's traversal can open, so the on-demand fetch count
// must drop to zero where ring mode pays round-trips.
func TestBatchedBranchPrefetchCoversFetches(t *testing.T) {
	full := particle.ClusteredVortexSheet(400)
	const p = 4
	ring := defaultCfg(0.4)
	bat := ring
	bat.Branch = BranchBatched
	_, _, ringStats := runEval(t, full, p, ring)
	_, _, batStats := runEval(t, full, p, bat)
	if ringStats.Fetches == 0 {
		t.Fatal("ring mode issued no fetches; system too small to exercise the exchange")
	}
	if batStats.Fetches != 0 {
		t.Fatalf("batched mode still issued %d on-demand fetches", batStats.Fetches)
	}
	if batStats.Prefetched == 0 {
		t.Fatal("batched mode prefetched no cells")
	}
}

// TestBatchedBranchHybridBitwise runs the batched exchange under the
// hybrid (threaded) traversal against the synchronous ring reference.
func TestBatchedBranchHybridBitwise(t *testing.T) {
	full := particle.ClusteredVortexSheet(400)
	const p = 3
	ring := defaultCfg(0.4)
	bat := ring
	bat.Branch = BranchBatched
	bat.Threads = 3
	vr, sr, _ := runEval(t, full, p, ring)
	vb, sb, _ := runEval(t, full, p, bat)
	for i := range vr {
		if vr[i] != vb[i] || sr[i] != sb[i] {
			t.Fatalf("particle %d: sync ring (%v, %v) != hybrid batched (%v, %v)",
				i, vr[i], sr[i], vb[i], sb[i])
		}
	}
}

// TestBatchedBranchUnevenDistribution covers empty and near-empty
// ranks: boxes of empty receivers are skipped and senders without a
// local tree ship nothing.
func TestBatchedBranchUnevenDistribution(t *testing.T) {
	// All particles in one octant: several ranks end up empty.
	full := particle.RandomVortexBlob(60, 0.05, 9)
	for _, p := range []int{4, 6} {
		ring := defaultCfg(0.5)
		bat := ring
		bat.Branch = BranchBatched
		vr, _, _ := runEval(t, full, p, ring)
		vb, _, _ := runEval(t, full, p, bat)
		for i := range vr {
			if vr[i] != vb[i] {
				t.Fatalf("p=%d particle %d: %v != %v", p, i, vr[i], vb[i])
			}
		}
	}
}
