package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openoptics/internal/engineobs"
)

// writeEngineFixture marshals a minimal-but-populated engine report to a
// temp file and returns its path.
func writeEngineFixture(t *testing.T, mutate func(map[string]any)) string {
	t.Helper()
	r := map[string]any{
		"schema_version":    engineobs.SchemaVersion,
		"events":            uint64(1400),
		"packets":           uint64(100),
		"events_per_packet": 14.0,
		"pressure": map[string]any{
			"pending_events": 3,
			"wheel_pushes":   900,
			"cursor_pushes":  100,
		},
	}
	if mutate != nil {
		mutate(r)
	}
	body, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.engine.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadEngineReportRoundTrip(t *testing.T) {
	path := writeEngineFixture(t, nil)
	r, err := loadEngineReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.SchemaVersion != engineobs.SchemaVersion || r.Events != 1400 || r.Pressure == nil {
		t.Fatalf("loaded report = %+v", r)
	}
}

func TestLoadEngineReportRejectsNonReports(t *testing.T) {
	// A JSON file without schema_version is some other artifact (metrics
	// dump, manifest) — refuse it with a pointed message.
	path := writeEngineFixture(t, func(r map[string]any) { delete(r, "schema_version") })
	if _, err := loadEngineReport(path); err == nil || !strings.Contains(err.Error(), "not an engine report") {
		t.Fatalf("missing schema_version: err = %v", err)
	}

	// A report from a future ooctl must fail loudly, not render garbage.
	path = writeEngineFixture(t, func(r map[string]any) { r["schema_version"] = engineobs.SchemaVersion + 1 })
	if _, err := loadEngineReport(path); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future schema: err = %v", err)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadEngineReport(bad); err == nil {
		t.Fatal("corrupt JSON must not load")
	}

	if _, err := loadEngineReport(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file must not load")
	}
}

func TestRunEngineViews(t *testing.T) {
	path := writeEngineFixture(t, nil)
	for _, view := range []string{"chains", "pressure", "shards"} {
		if rc := runEngine([]string{view, path}); rc != 0 {
			t.Fatalf("engine %s exited %d", view, rc)
		}
	}
}

func TestRunEngineBadInvocations(t *testing.T) {
	path := writeEngineFixture(t, nil)
	if rc := runEngine([]string{"bogus", path}); rc != 2 {
		t.Fatalf("unknown view exited %d, want 2", rc)
	}
	if rc := runEngine([]string{"chains"}); rc != 2 {
		t.Fatalf("missing path exited %d, want 2", rc)
	}
	if rc := runEngine(nil); rc != 2 {
		t.Fatalf("no args exited %d, want 2", rc)
	}
	if rc := runEngine([]string{"chains", filepath.Join(t.TempDir(), "absent.json")}); rc != 1 {
		t.Fatalf("missing file exited %d, want 1", rc)
	}
}
