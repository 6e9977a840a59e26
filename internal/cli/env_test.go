package cli

import (
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadEnvironmentDefaults(t *testing.T) {
	catalog, registry, err := LoadEnvironment("", "")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(catalog.Names()); n != 4 {
		t.Errorf("default catalog has %d types", n)
	}
	if n := len(registry.Names()); n != 6 {
		t.Errorf("default registry has %d workloads", n)
	}
}

func TestLoadEnvironmentWithOverlays(t *testing.T) {
	dir := t.TempDir()
	nodesPath := writeFile(t, dir, "nodes.json", `[{
		"name":"Edge","cores":4,"freq_ghz":[0.8,1.5],"nic_bandwidth_bps":1e9,
		"power":{"cpu_act_per_core_w":1,"cpu_stall_per_core_w":0.4,"mem_w":0.5,"net_w":0.5,"idle_w":3},
		"nominal_peak_w":9}]`)
	wlPath := writeFile(t, dir, "wl.json", `[{
		"name":"edge-infer","unit":"frames","job_units":1000,
		"demands":{
			"Edge":{"core_cycles_per_unit":2e6,"mem_cycles_per_unit":5e5,"intensity":0.7},
			"A9":{"core_cycles_per_unit":8e6,"mem_cycles_per_unit":2e6,"intensity":0.3}
		}}]`)

	catalog, registry, err := LoadEnvironment(nodesPath, wlPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := catalog.Lookup("Edge"); err != nil {
		t.Errorf("custom node missing: %v", err)
	}
	p, err := registry.Lookup("edge-infer")
	if err != nil {
		t.Fatalf("custom workload missing: %v", err)
	}
	// End to end: the custom workload runs on the custom node through
	// the same mix parser the tools use.
	cfg, err := ParseMix(catalog, "4xEdge,8xA9", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.Count("Edge") + cfg.Count("A9"); n != 12 {
		t.Errorf("mixed custom config has %d nodes", n)
	}
	if !p.Supports("Edge") || !p.Supports("A9") {
		t.Error("custom workload does not cover its node types")
	}
}

func TestLoadEnvironmentErrors(t *testing.T) {
	if _, _, err := LoadEnvironment("/nonexistent/nodes.json", ""); err == nil {
		t.Error("missing nodes file accepted")
	}
	if _, _, err := LoadEnvironment("", "/nonexistent/wl.json"); err == nil {
		t.Error("missing workloads file accepted")
	}
	dir := t.TempDir()
	bad := writeFile(t, dir, "bad.json", "not json")
	if _, _, err := LoadEnvironment(bad, ""); err == nil {
		t.Error("bad nodes JSON accepted")
	}
	if _, _, err := LoadEnvironment("", bad); err == nil {
		t.Error("bad workloads JSON accepted")
	}
	// A workload file colliding with a paper workload name fails.
	dup := writeFile(t, dir, "dup.json", `[{
		"name":"EP","unit":"u","job_units":1,
		"demands":{"A9":{"core_cycles_per_unit":1,"intensity":1}}}]`)
	if _, _, err := LoadEnvironment("", dup); err == nil {
		t.Error("duplicate workload name accepted")
	}
}
