package main

import (
	"strings"
	"testing"
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
