package cghti

import (
	"strings"
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string // "" = must be valid
	}{
		{"zero config", Config{}, ""},
		{"sensible config", smallConfig(1), ""},
		{"negative vectors", Config{RareVectors: -1}, "RareVectors"},
		{"negative threshold", Config{RareThreshold: -0.1}, "RareThreshold"},
		{"threshold one", Config{RareThreshold: 1.0}, "RareThreshold"},
		{"threshold above one", Config{RareThreshold: 1.5}, "RareThreshold"},
		{"trigger nodes one", Config{MinTriggerNodes: 1}, "MinTriggerNodes"},
		{"negative trigger nodes", Config{MinTriggerNodes: -3}, "MinTriggerNodes"},
		{"negative instances", Config{Instances: -1}, "Instances"},
		{"fanin one", Config{FaninK: 1}, "FaninK"},
		{"negative fanin", Config{FaninK: -2}, "FaninK"},
		{"negative backtracks", Config{MaxBacktracks: -1}, "MaxBacktracks"},
		{"negative rare cap", Config{MaxRareNodes: -5}, "MaxRareNodes"},
		{"negative clique attempts", Config{CliqueAttempts: -1}, "CliqueAttempts"},
		{"negative workers", Config{Workers: -1}, "Workers"},
		{"negative partitions", Config{Partitions: -1}, "Partitions"},
		{"negative stage budget", Config{StageBudgets: map[string]time.Duration{StageCubeGen: -time.Millisecond}}, "StageBudgets"},
		{"zero stage budget ok", Config{StageBudgets: map[string]time.Duration{StageCubeGen: 0}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted a bad %s", tc.field)
			}
			if !strings.Contains(err.Error(), "Config."+tc.field) {
				t.Fatalf("error %q does not name Config.%s", err, tc.field)
			}
		})
	}
}

func TestGenerateRejectsInvalidConfig(t *testing.T) {
	n := robustCircuit(t)
	_, err := Generate(n, Config{RareThreshold: 2})
	if err == nil {
		t.Fatal("Generate accepted RareThreshold=2")
	}
	if !strings.Contains(err.Error(), "Config.RareThreshold") {
		t.Fatalf("error %q does not name the bad field", err)
	}
}
