package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"ctacluster/internal/calib"
)

func TestCheckDocFlags(t *testing.T) {
	cmdFlags := map[string]map[string]bool{
		"evaluate": {"quick": true, "arch": true},
	}
	tests := []struct {
		name string
		doc  string
		want []string // substrings, one per expected problem
	}{
		{"existing command and flag", "```sh\ngo run ./cmd/evaluate -quick -arch TeslaK40\n```\n", nil},
		{"bare command name", "    evaluate -quick\n", nil},
		{"unregistered flag", "```sh\ngo run ./cmd/evaluate -points 24\n```\n",
			[]string{`doc.md:2: command "evaluate" has no flag -points`}},
		{"deleted command", "```sh\ngo run ./cmd/microbench -arch GTX980\n```\n",
			[]string{"doc.md:2: ./cmd/microbench names no command (no cmd/microbench directory)"}},
		{"deleted command with trailing slash", "    go build ./cmd/ctafleet/\n",
			[]string{"./cmd/ctafleet/ names no command"}},
		{"package pattern is not a command", "    go build ./cmd/...\n", nil},
		{"prose is not scanned", "Run ./cmd/microbench -points 5 by hand.\n", nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := checkDocFlags("doc.md", tt.doc, cmdFlags, map[string]map[string]bool{})
			if len(got) != len(tt.want) {
				t.Fatalf("problems = %q, want %d", got, len(tt.want))
			}
			for i, sub := range tt.want {
				if !strings.Contains(got[i], sub) {
					t.Errorf("problem %d = %q, want substring %q", i, got[i], sub)
				}
			}
		})
	}
}

// TestCheckPaperTables runs invariant 5 on the committed EXPERIMENTS.md
// and BENCH_calib.json, then shows that editing one Measured or Paper
// cell, or dropping a table, fails it.
func TestCheckPaperTables(t *testing.T) {
	docBytes, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../../BENCH_calib.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep calib.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	ref, err := calib.Load()
	if err != nil {
		t.Fatal(err)
	}
	doc := string(docBytes)
	const measured = "| cache-line-related        | 1.47 / 1.29 / 0.94 / 0.95 | 1.67 / 1.68 / 1.09 / 1.12 |"
	if !strings.Contains(doc, measured) {
		t.Fatalf("EXPERIMENTS.md lacks the row %q this test edits", measured)
	}
	tests := []struct {
		name string
		doc  string
		want []string
	}{
		{"committed docs", doc, nil},
		{"edited measured cell", strings.Replace(doc, measured,
			"| cache-line-related        | 1.47 / 1.29 / 0.94 / 0.95 | 1.72 / 1.68 / 1.09 / 1.12 |", 1),
			[]string{"Figure 12 cache-line-related on GTX570 reads 1.72, BENCH_calib.json says 1.67"}},
		{"edited paper cell", strings.Replace(doc, measured,
			"| cache-line-related        | 1.47 / 1.29 / 0.94 / 0.96 | 1.67 / 1.68 / 1.09 / 1.12 |", 1),
			[]string{"Figure 12 cache-line-related on GTX1080 reads 0.96, paper.csv says 0.95"}},
		{"table dropped", strings.Replace(doc, "| Panel (geo-mean L2 txns", "| Panel (L2", 1),
			[]string{"no Figure 13 geo-mean table"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := checkPaperTables("EXPERIMENTS.md", tt.doc, &rep, ref)
			if len(got) != len(tt.want) {
				t.Fatalf("problems = %q, want %d", got, len(tt.want))
			}
			for i, sub := range tt.want {
				if !strings.Contains(got[i], sub) {
					t.Errorf("problem %d = %q, want substring %q", i, got[i], sub)
				}
			}
		})
	}
}
