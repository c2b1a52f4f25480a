package driver

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/analysis/suite"
	"repro/internal/analysis/unitchecker"
)

func finding(analyzer, file string, line int, msg string) unitchecker.Finding {
	return unitchecker.Finding{Analyzer: analyzer, File: file, Line: line, Col: 1, Message: msg}
}

// The baseline matches by analyzer+file+message (not line), is a
// multiset (two identical findings need two entries), and counts stale
// entries so debt can be ratcheted down.
func TestApplyBaseline(t *testing.T) {
	findings := []unitchecker.Finding{
		finding("maporder", "a.go", 10, "map iter"),
		finding("maporder", "a.go", 40, "map iter"), // second identical: needs its own entry
		finding("wallclock", "b.go", 3, "time.Now"),
	}
	baseline := map[BaselineEntry]int{
		{Analyzer: "maporder", File: "a.go", Message: "map iter"}:  1,
		{Analyzer: "wallclock", File: "c.go", Message: "time.Now"}: 1, // stale: fixed since
	}
	v := applyBaseline(findings, baseline)
	if len(v.baselined) != 1 {
		t.Errorf("baselined = %d, want 1 (multiset: one entry tolerates one finding)", len(v.baselined))
	}
	if len(v.fresh) != 2 {
		t.Errorf("fresh = %d, want 2 (second duplicate + wallclock): %+v", len(v.fresh), v.fresh)
	}
	if v.stale != 1 {
		t.Errorf("stale = %d, want 1", v.stale)
	}

	// Line churn must not break the match.
	moved := []unitchecker.Finding{finding("maporder", "a.go", 999, "map iter")}
	v = applyBaseline(moved, map[BaselineEntry]int{
		{Analyzer: "maporder", File: "a.go", Message: "map iter"}: 1,
	})
	if len(v.fresh) != 0 || len(v.baselined) != 1 {
		t.Errorf("line move broke the baseline match: fresh=%d baselined=%d", len(v.fresh), len(v.baselined))
	}

	// No baseline at all: everything fresh.
	v = applyBaseline(findings, nil)
	if len(v.fresh) != 3 || len(v.baselined) != 0 || v.stale != 0 {
		t.Errorf("nil baseline: fresh=%d baselined=%d stale=%d, want 3/0/0", len(v.fresh), len(v.baselined), v.stale)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	findings := []unitchecker.Finding{
		finding("maporder", "a.go", 10, "map iter"),
		finding("maporder", "a.go", 40, "map iter"),
	}
	if err := writeBaseline(path, findings); err != nil {
		t.Fatal(err)
	}
	counts, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	e := BaselineEntry{Analyzer: "maporder", File: "a.go", Message: "map iter"}
	if counts[e] != 2 {
		t.Errorf("round trip lost the multiset count: %d, want 2", counts[e])
	}
	v := applyBaseline(findings, counts)
	if len(v.fresh) != 0 || v.stale != 0 {
		t.Errorf("self-written baseline must gate clean: fresh=%d stale=%d", len(v.fresh), v.stale)
	}
}

// The SARIF output must carry the fixed 2.1.0 identification, one rule
// per analyzer, and per-result baselineState so viewers can split new
// findings from suppression debt. Validated through a generic unmarshal
// so struct tags (not struct identity) are what is asserted.
func TestBuildSARIFShape(t *testing.T) {
	analyzers := suite.Analyzers()
	v := verdict{
		fresh:     []unitchecker.Finding{finding("maporder", "x/a.go", 7, "map iter")},
		baselined: []unitchecker.Finding{finding("wallclock", "y/b.go", 9, "time.Now")},
	}
	data, err := json.Marshal(buildSARIF(analyzers, v))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				BaselineState string `json:"baselineState"`
				Locations     []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	if doc.Schema != "https://json.schemastore.org/sarif-2.1.0.json" {
		t.Errorf("$schema = %q", doc.Schema)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "reprolint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(analyzers) {
		t.Errorf("rules = %d, want %d (one per analyzer)", len(run.Tool.Driver.Rules), len(analyzers))
	}
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "" || r.ShortDescription.Text == "" {
			t.Errorf("rule missing id or shortDescription: %+v", r)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	for i, want := range []struct{ rule, state, uri string }{
		{"maporder", "new", "x/a.go"},
		{"wallclock", "unchanged", "y/b.go"},
	} {
		r := run.Results[i]
		if r.RuleID != want.rule || r.BaselineState != want.state || r.Level != "error" {
			t.Errorf("result %d = %+v, want rule %s state %s level error", i, r, want.rule, want.state)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result %d has %d locations", i, len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != want.uri || loc.Region.StartLine == 0 {
			t.Errorf("result %d location = %+v, want uri %s with a startLine", i, loc, want.uri)
		}
	}
}
