package main

import "testing"

// TestCheckFlags pins that a misspelled -scheme and an -activation
// other than 0 or 1 are refused instead of running nothing or running
// the other activation value.
func TestCheckFlags(t *testing.T) {
	for _, scheme := range []string{"random", "mero", "ndatpg", "cotd", "all"} {
		for _, activation := range []int{0, 1} {
			if err := checkFlags(scheme, activation); err != nil {
				t.Errorf("checkFlags(%q, %d) = %v, want nil", scheme, activation, err)
			}
		}
	}
	for _, tc := range []struct {
		scheme     string
		activation int
		want       string
	}{
		{"meros", 1, `unknown -scheme "meros" (want random, mero, ndatpg, cotd or all)`},
		{"", 1, `unknown -scheme "" (want random, mero, ndatpg, cotd or all)`},
		{"all", 2, "-activation 2 must be 0 or 1"},
		{"mero", -1, "-activation -1 must be 0 or 1"},
	} {
		err := checkFlags(tc.scheme, tc.activation)
		if err == nil || err.Error() != tc.want {
			t.Errorf("checkFlags(%q, %d) = %v, want %q", tc.scheme, tc.activation, err, tc.want)
		}
	}
}
