package microbench

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestSuiteBuilds(t *testing.T) {
	node := hardware.NewA9()
	for want, build := range map[string]func(*hardware.NodeType, units.Seconds) (*workload.Profile, error){
		NameCPUBurn: CPUBurn, NameMemStall: MemStall, NameNetBlast: NetBlast,
	} {
		p, err := build(node, 5)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != want {
			t.Errorf("benchmark %s is named %s", want, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
	}
}

// TestMicrobenchDurations: each benchmark must run for approximately the
// requested duration on its node at full cores and fmax.
func TestMicrobenchDurations(t *testing.T) {
	for _, nodeFn := range []func() *hardware.NodeType{hardware.NewA9, hardware.NewK10} {
		node := nodeFn()
		const dur = units.Seconds(5)
		cfg := cluster.MustConfig(cluster.FullNodes(node, 1))
		burn, err := CPUBurn(node, dur)
		if err != nil {
			t.Fatal(err)
		}
		res, err := model.Evaluate(cfg, burn, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.RelErr(float64(res.Time), float64(dur)) > 1e-9 {
			t.Errorf("%s cpuburn runs %v, want %v", node.Name, res.Time, dur)
		}
		stall, err := MemStall(node, dur)
		if err != nil {
			t.Fatal(err)
		}
		res, err = model.Evaluate(cfg, stall, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.RelErr(float64(res.Time), float64(dur)) > 1e-9 {
			t.Errorf("%s memstall runs %v, want %v", node.Name, res.Time, dur)
		}
		blast, err := NetBlast(node, dur)
		if err != nil {
			t.Fatal(err)
		}
		res, err = model.Evaluate(cfg, blast, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.RelErr(float64(res.Time), float64(dur)) > 1e-9 {
			t.Errorf("%s netblast runs %v, want %v", node.Name, res.Time, dur)
		}
	}
}

// TestCPUBurnPowerIsActiveOnly: the cpuburn busy power must be idle plus
// full-intensity active power on every core — that is what the power
// characterization divides by.
func TestCPUBurnPowerIsActiveOnly(t *testing.T) {
	node := hardware.NewK10()
	cfg := cluster.MustConfig(cluster.FullNodes(node, 1))
	burn, err := CPUBurn(node, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Evaluate(cfg, burn, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(node.Power.Idle) + float64(node.Power.CPUActPerCore)*float64(node.Cores)
	if stats.RelErr(float64(res.BusyPower), want) > 0.02 {
		t.Errorf("cpuburn busy power %v, want ~%.3g W", res.BusyPower, want)
	}
}

// TestMemStallPowerComposition: memstall draws idle + stall + memory.
func TestMemStallPowerComposition(t *testing.T) {
	node := hardware.NewK10()
	cfg := cluster.MustConfig(cluster.FullNodes(node, 1))
	stall, err := MemStall(node, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Evaluate(cfg, stall, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(node.Power.Idle) +
		float64(node.Power.CPUStallPerCore)*float64(node.Cores) +
		float64(node.Power.Mem)
	if stats.RelErr(float64(res.BusyPower), want) > 0.02 {
		t.Errorf("memstall busy power %v, want ~%.3g W", res.BusyPower, want)
	}
}

// TestNetBlastSaturatesNIC: the netblast throughput equals the NIC
// bandwidth.
func TestNetBlastSaturatesNIC(t *testing.T) {
	node := hardware.NewA9()
	cfg := cluster.MustConfig(cluster.FullNodes(node, 1))
	blast, err := NetBlast(node, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Evaluate(cfg, blast, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Units are kilobyte transfers; bytes/s = units/s * 1000.
	bytesPerSec := float64(res.Throughput) * 1000
	if stats.RelErr(bytesPerSec, float64(node.NICBandwidth)) > 1e-9 {
		t.Errorf("netblast moves %.4g B/s, NIC is %.4g B/s", bytesPerSec, float64(node.NICBandwidth))
	}
}

func TestMicrobenchRejectsInvalidNode(t *testing.T) {
	bad := hardware.NewA9()
	bad.Cores = 0
	if _, err := CPUBurn(bad, 1); err == nil {
		t.Error("CPUBurn accepted invalid node")
	}
	if _, err := MemStall(bad, 1); err == nil {
		t.Error("MemStall accepted invalid node")
	}
	if _, err := NetBlast(bad, 1); err == nil {
		t.Error("NetBlast accepted invalid node")
	}
}
