package main

import (
	"strings"
	"testing"
)

// TestParseFigs: names resolve through the figures table — an alias selects
// its figure, "all" selects every entry, and a name the table does not hold
// (or an empty element) is an error that lists the valid names.
func TestParseFigs(t *testing.T) {
	index := func(name string) int {
		for i, f := range figures {
			if f.names[0] == name {
				return i
			}
		}
		t.Fatalf("no figure %q in the table", name)
		return -1
	}
	for _, tc := range []struct {
		spec string
		want []string // canonical names selected; nil means error
	}{
		{"8a", []string{"8a"}},
		{"9a", []string{"9"}},
		{"9a,9b,9", []string{"9"}},
		{"A1, E2", []string{"ablation", "networkfree"}},
		{"14b,8a", []string{"8a", "14b"}},
		{"all", strings.Split(figureNames(), ",")},
		{"8c", nil},
		{"", nil},
		{"8a,,9", nil},
		{"8a,nope", nil},
	} {
		sel, err := parseFigs(tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseFigs(%q): no error", tc.spec)
			} else if !strings.Contains(err.Error(), figureNames()) {
				t.Errorf("parseFigs(%q): error %q does not list the valid names", tc.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFigs(%q): %v", tc.spec, err)
			continue
		}
		want := make([]bool, len(figures))
		for _, name := range tc.want {
			want[index(name)] = true
		}
		for i := range sel {
			if sel[i] != want[i] {
				t.Errorf("parseFigs(%q): figure %s selected=%v, want %v", tc.spec, figures[i].names[0], sel[i], want[i])
			}
		}
	}
}

// TestFigureNamesUnique: no name or alias resolves to two figures.
func TestFigureNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, f := range figures {
		for _, n := range f.names {
			if seen[n] {
				t.Errorf("figure name %q appears twice", n)
			}
			seen[n] = true
		}
	}
}
