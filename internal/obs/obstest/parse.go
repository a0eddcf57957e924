// Package obstest holds test helpers for the obs package and the
// packages that expose its metrics. Only _test.go files import it, so
// none of it ships in a binary.
package obstest

// A strict-enough parser for the Prometheus text exposition format,
// used by the tests and the daemon metrics smoke to validate that
// what /metrics serves actually parses — a gate on the writer, not a
// general scrape client — and to read series back by name.

import (
	"fmt"
	"strconv"
	"strings"
)

// Sample is one parsed metric sample.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseExposition validates data against the Prometheus text format
// (version 0.0.4) and returns the samples. It enforces what the
// format actually promises: legal metric and label names, quoted and
// escaped label values, float-parsable sample values, `# TYPE` lines
// naming a known type at most once per family and appearing before
// that family's samples.
func ParseExposition(data []byte) ([]Sample, error) {
	var samples []Sample
	typed := make(map[string]string)
	seenSamples := make(map[string]bool)
	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			switch fields[1] {
			case "HELP":
				if !validMetricName(fields[2]) {
					return nil, fmt.Errorf("line %d: HELP for invalid metric name %q", lineNo, fields[2])
				}
			case "TYPE":
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: TYPE needs a name and a type", lineNo)
				}
				name, typ := fields[2], fields[3]
				if !validMetricName(name) {
					return nil, fmt.Errorf("line %d: TYPE for invalid metric name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := typed[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				if seenSamples[name] {
					return nil, fmt.Errorf("line %d: TYPE for %q after its samples", lineNo, name)
				}
				typed[name] = typ
			default:
				// Other comments are legal and ignored.
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		seenSamples[familyOf(s.Name)] = true
		samples = append(samples, s)
	}
	return samples, nil
}

// SampleValue returns the value of the first sample named name whose
// labels include every pair in labels (nil matches any series).
func SampleValue(samples []Sample, name string, labels map[string]string) (float64, bool) {
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for k, v := range labels {
			if s.Labels[k] != v {
				continue next
			}
		}
		return s.Value, true
	}
	return 0, false
}

// familyOf strips the histogram/summary sample suffixes so TYPE
// ordering can be checked against the family name.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if f, ok := strings.CutSuffix(name, suf); ok {
			return f
		}
	}
	return name
}

func parseSample(line string) (Sample, error) {
	s := Sample{}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("sample %q: no metric name", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, fmt.Errorf("sample %q: %w", line, err)
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " \t")
	// An optional timestamp may trail the value.
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %q: want value [timestamp], got %q", line, rest)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value %q", line, fields[0])
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("sample %q: bad timestamp %q", line, fields[1])
		}
	}
	return s, nil
}

func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(v, 64)
}

// parseLabels consumes a {k="v",...} block, returning the index just
// past the closing brace.
func parseLabels(in string) (int, map[string]string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		if i >= len(in) {
			return 0, nil, fmt.Errorf("unterminated label block")
		}
		if in[i] == '}' {
			return i + 1, labels, nil
		}
		start := i
		for i < len(in) && isLabelNameChar(in[i], i == start) {
			i++
		}
		if i == start {
			return 0, nil, fmt.Errorf("empty label name at offset %d", i)
		}
		name := in[start:i]
		if i >= len(in) || in[i] != '=' {
			return 0, nil, fmt.Errorf("label %q: want '='", name)
		}
		i++
		if i >= len(in) || in[i] != '"' {
			return 0, nil, fmt.Errorf("label %q: want quoted value", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(in) {
				return 0, nil, fmt.Errorf("label %q: unterminated value", name)
			}
			c := in[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				i++
				if i >= len(in) {
					return 0, nil, fmt.Errorf("label %q: dangling escape", name)
				}
				switch in[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("label %q: bad escape \\%c", name, in[i])
				}
				i++
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[name]; dup {
			return 0, nil, fmt.Errorf("duplicate label %q", name)
		}
		labels[name] = val.String()
		if i < len(in) && in[i] == ',' {
			i++
		}
	}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func isLabelNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}
