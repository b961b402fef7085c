package lint

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSARIF(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "nondet-taint", File: "internal/x/y.go", Line: 12, Col: 3, Message: "wall clock"},
		{Analyzer: "pool-lifetime", File: "internal/x/z.go", Line: 40, Col: 1, Message: "use after release"},
	}
	data, err := SARIF(diags, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region *struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "liteworp-lint" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	// Every registered analyzer appears as a rule, findings or not.
	if len(run.Tool.Driver.Rules) != len(Analyzers()) {
		t.Errorf("rules = %d, want %d", len(run.Tool.Driver.Rules), len(Analyzers()))
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "nondet-taint" || first.Level != "error" {
		t.Errorf("result[0] = %+v", first)
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/x/y.go" || loc.Region == nil || loc.Region.StartLine != 12 {
		t.Errorf("result[0] location = %+v", loc)
	}
	if reg := run.Results[1].Locations[0].PhysicalLocation.Region; reg == nil || reg.StartLine != 40 {
		t.Errorf("result[1] region = %+v", reg)
	}

	// Byte-stable across runs.
	again, err := SARIF(diags, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("SARIF output is not byte-stable")
	}
}
