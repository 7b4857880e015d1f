package nbody

// Facade-level chaos tests: the full space-time solver (parallel trees
// + PFASST) under seeded fault plans. Transient plans must be bitwise
// invisible; a planned rank crash must complete degraded within
// tolerance; misconfigurations must be rejected up front.

import (
	"testing"
)

func chaosConfig(pt, ps int) SpaceTimeConfig {
	cfg := DefaultSpaceTime(pt, ps)
	cfg.Resilience.Enabled = true
	return cfg
}

func TestFacadeResilientMatchesPlain(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	plain, _, err := RunSpaceTime(DefaultSpaceTime(4, 1), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunSpaceTime(chaosConfig(4, 1), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Particles {
		if plain.Particles[i] != res.Particles[i] {
			t.Fatalf("resilient path changed particle %d without any faults", i)
		}
	}
}

func TestFacadeTransientChaosBitwise(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	clean, _, err := RunSpaceTime(chaosConfig(2, 2), sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(2, 2)
	cfg.Resilience.FaultPlan = "drop=0.08,delay=0.15:30us,corrupt=0.04"
	cfg.Resilience.FaultSeed = 11
	cfg.Telemetry = true
	chaos, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Particles {
		if clean.Particles[i] != chaos.Particles[i] {
			t.Fatalf("transient chaos changed particle %d", i)
		}
	}
	if stats.Run.Counter("fault.injected") == 0 {
		t.Fatal("no faults recorded despite a lossy plan")
	}
	if stats.Run.Counter("fault.recovered") == 0 {
		t.Fatal("no transport recoveries recorded")
	}
}

func TestFacadeCrashRecovery(t *testing.T) {
	sys := RandomBlob(48, 0.2, 7)
	clean, _, err := RunSpaceTime(chaosConfig(4, 1), sys, 0, 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(4, 1)
	cfg.Resilience.FaultPlan = "crash=1@iter:1"
	cfg.Telemetry = true
	out, stats, err := RunSpaceTime(cfg, sys, 0, 0.2, 8)
	if err != nil {
		t.Fatalf("crash was not survived: %v", err)
	}
	if stats.Run.Counter("fault.degraded_blocks") == 0 {
		t.Fatal("no degraded blocks recorded after a crash")
	}
	if stats.Run.Counter("pfasst.block_restarts") == 0 {
		t.Fatal("no block restart recorded after a crash")
	}
	// Degraded mode redoes blocks on fewer ranks: not bitwise, but it
	// must stay scientifically consistent with the fault-free result.
	var maxd float64
	for i := range clean.Particles {
		d := clean.Particles[i].Pos.Sub(out.Particles[i].Pos).Norm()
		if d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-4 {
		t.Fatalf("degraded-mode positions diverge by %g", maxd)
	}
}

func TestFacadeRejectsBadResilienceConfigs(t *testing.T) {
	sys := RandomBlob(16, 0.2, 7)
	// Crash plan without the resilient loop: refuse, don't hang.
	cfg := DefaultSpaceTime(2, 1)
	cfg.Resilience.FaultPlan = "crash=0@block:0"
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err == nil {
		t.Fatal("crash plan without Resilience.Enabled accepted")
	}
	// Crash recovery at PS>1 used to be rejected as an unsupported
	// configuration; the grid-resilient loop (spatial shrink +
	// re-decomposition) now accepts and survives it.
	cfg = chaosConfig(2, 2)
	cfg.Resilience.FaultPlan = "crash=0@block:0"
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err != nil {
		t.Fatalf("crash plan with PS>1 no longer supported: %v", err)
	}
	// The guard layer composes with the resilient loop at any PS:
	// corruption and crash verdicts share the per-block grid agreement.
	cfg = chaosConfig(2, 2)
	cfg.Guard.Enabled = true
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err != nil {
		t.Fatalf("guard + resilience with PS>1 no longer supported: %v", err)
	}
	// Malformed plan strings are reported, not ignored.
	cfg = chaosConfig(2, 1)
	cfg.Resilience.FaultPlan = "bogus=1"
	if _, _, err := RunSpaceTime(cfg, sys, 0, 0.1, 2); err == nil {
		t.Fatal("malformed fault plan accepted")
	}
}
