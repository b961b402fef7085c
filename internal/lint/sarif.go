package lint

import "encoding/json"

// SARIF renders findings as a SARIF 2.1.0 log so CI systems (GitHub code
// scanning above all) can ingest lint results as first-class annotations.
// Only the small subset of the format we need is emitted; diagnostics must
// already be in canonical order (SortDiagnostics) so the log is
// byte-stable across runs.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIF marshals the diagnostics as an indented SARIF 2.1.0 document. The
// rules table lists every registered analyzer, findings or not, so the
// consumer can show which checks ran.
func SARIF(diags []Diagnostic, analyzers []*Analyzer) ([]byte, error) {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: d.File},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "liteworp-lint", Rules: rules}},
			Results: results,
		}},
	}
	data, err := json.MarshalIndent(&log, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
