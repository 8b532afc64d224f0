package calib

// Canonical CSV codecs for the reference store. The format is rigid on
// purpose: FuzzCalibReference holds decode→re-encode to the identity,
// so every accepted document has exactly one canonical rendering —
// floats in Go's shortest round-trip form, canonical integers, a fixed
// banner line. A looser format would let two byte-different files mean
// the same reference.

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

const (
	// appsBanner is apps.csv's first line, kept verbatim so the file
	// stays byte-identical for its readers; TestAppsMatchSimulator's
	// -update flag is what rewrites the file now.
	appsBanner  = "# ctacalib per-app reference targets; regenerate with `ctacalib seed`"
	appsHeader  = "arch,app,cycles,speedup"
	paperBanner = "# ctacalib paper reference: numbers transcribed by hand from the paper; no code path writes this file"
	paperHeader = "figure,arch,metric,value,source"
)

// EncodeApps renders the per-app targets in the canonical byte form.
func EncodeApps(apps []AppTarget) []byte {
	var b bytes.Buffer
	b.WriteString(appsBanner + "\n" + appsHeader + "\n")
	for _, t := range apps {
		b.WriteString(t.Arch)
		b.WriteByte(',')
		b.WriteString(t.App)
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(t.Cycles, 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(t.Speedup, 'g', -1, 64))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// DecodeApps parses a per-app target document.
func DecodeApps(data []byte) ([]AppTarget, error) {
	lines, err := splitLines(data)
	if err != nil {
		return nil, err
	}
	if len(lines) < 2 || lines[0] != appsBanner || lines[1] != appsHeader {
		return nil, fmt.Errorf("apps: want banner and header %q", appsHeader)
	}
	var out []AppTarget
	for _, line := range lines[2:] {
		f := strings.Split(line, ",")
		if len(f) != 4 {
			return nil, fmt.Errorf("apps: row %q has %d fields, want 4", line, len(f))
		}
		if f[0] == "" || f[1] == "" {
			return nil, fmt.Errorf("apps: row %q has empty arch or app", line)
		}
		cyc, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil || cyc < 0 || strconv.FormatInt(cyc, 10) != f[2] {
			return nil, fmt.Errorf("apps: bad cycles %q", f[2])
		}
		sp, err := parseCycles(f[3])
		if err != nil {
			return nil, fmt.Errorf("apps: row %q: %v", line, err)
		}
		out = append(out, AppTarget{Arch: f[0], App: f[1], Cycles: cyc, Speedup: sp})
	}
	return out, nil
}

// EncodePaper renders paper.csv's rows in the canonical byte form.
func EncodePaper(vals []PaperValue) []byte {
	var b bytes.Buffer
	b.WriteString(paperBanner + "\n" + paperHeader + "\n")
	for _, v := range vals {
		fmt.Fprintf(&b, "%d,%s,%s,%s,%s\n", v.Figure, v.Arch, v.Metric,
			strconv.FormatFloat(v.Value, 'g', -1, 64), v.Source)
	}
	return b.Bytes()
}

// DecodePaper parses a paper reference document. The source is the
// last field and may itself contain commas; a (figure, arch, metric)
// key may appear only once.
func DecodePaper(data []byte) ([]PaperValue, error) {
	lines, err := splitLines(data)
	if err != nil {
		return nil, err
	}
	if len(lines) < 2 || lines[0] != paperBanner || lines[1] != paperHeader {
		return nil, fmt.Errorf("paper: want banner and header %q", paperHeader)
	}
	var out []PaperValue
	seen := map[[3]string]bool{}
	for _, line := range lines[2:] {
		f := strings.SplitN(line, ",", 5)
		if len(f) != 5 || f[1] == "" || f[2] == "" || f[4] == "" {
			return nil, fmt.Errorf("paper: row %q needs figure, arch, metric, value and source", line)
		}
		fig, err := parseCanonInt(f[0])
		if err != nil || (fig != 2 && fig != 12 && fig != 13) {
			return nil, fmt.Errorf("paper: row %q: figure must be 2, 12 or 13", line)
		}
		val, err := parseCycles(f[3])
		if err != nil || val == 0 {
			return nil, fmt.Errorf("paper: row %q: value must be positive", line)
		}
		key := [3]string{f[0], f[1], f[2]}
		if seen[key] {
			return nil, fmt.Errorf("paper: duplicate row for %v", key)
		}
		seen[key] = true
		out = append(out, PaperValue{Figure: fig, Arch: f[1], Metric: f[2], Value: val, Source: f[4]})
	}
	return out, nil
}

// splitLines splits on '\n', requiring a trailing newline and no CR or
// empty interior lines — the canonical framing both encoders emit.
func splitLines(data []byte) ([]string, error) {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("missing trailing newline")
	}
	if bytes.ContainsRune(data, '\r') {
		return nil, fmt.Errorf("CR in input")
	}
	lines := strings.Split(string(data[:len(data)-1]), "\n")
	for i, l := range lines {
		if l == "" {
			return nil, fmt.Errorf("empty line %d", i+1)
		}
	}
	return lines, nil
}

// parseCanonInt parses a non-negative integer in canonical form:
// strconv's rendering and nothing else, so "+5", "007" and friends are
// rejected and decode→encode stays the identity.
func parseCanonInt(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 || strconv.Itoa(v) != s {
		return 0, fmt.Errorf("non-canonical integer %q", s)
	}
	return v, nil
}

// parseCycles parses a finite, non-negative float in canonical form.
func parseCycles(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad float %q", s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("non-finite or negative %q", s)
	}
	// Reject non-shortest renderings ("1.50", "1e1") so decode→encode
	// is a fixed point on first application.
	if strconv.FormatFloat(v, 'g', -1, 64) != s {
		return 0, fmt.Errorf("non-canonical float %q", s)
	}
	return v, nil
}
