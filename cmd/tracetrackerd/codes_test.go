package main

// TestStableCodeSync locks the README's "stable codes" paragraph (the
// client contract) to apicode's table (the one the envelope writers
// take their codes from). The compiler keeps every other copy out:
// httpError, reject and engine.ValidationError accept only an
// apicode.Code.

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/apicode"
)

// readmeCodes extracts every `code` mentioned in the README's stable
// codes paragraph (the text between "Codes are part of the contract"
// and the following blank line).
func readmeCodes(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "Codes are part of the contract")
	if start < 0 {
		t.Fatal("README: stable-codes paragraph not found")
	}
	text = text[start:]
	if end := strings.Index(text, "\n\n"); end >= 0 {
		text = text[:end]
	}
	var codes []string
	for _, m := range regexp.MustCompile("`([a-z_]+)`").FindAllStringSubmatch(text, -1) {
		codes = append(codes, m[1])
	}
	return codes
}

func TestStableCodeSync(t *testing.T) {
	names := apicode.Names()
	table := slices.Sorted(slices.Values(names[:]))
	if slices.Contains(table, "") || len(slices.Compact(slices.Clone(table))) != len(table) {
		t.Fatalf("apicode table has an empty or duplicate name: %v", table)
	}
	if readme := slices.Sorted(slices.Values(readmeCodes(t))); !slices.Equal(table, readme) {
		t.Errorf("apicode and the README stable-codes paragraph disagree:\n apicode: %v\n README:  %v",
			table, readme)
	}
}
