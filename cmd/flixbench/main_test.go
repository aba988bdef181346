package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	for exp, want := range map[string]string{ // "" = rejected
		"all": "table1 figure5 errors conn", "table1": "table1", "conn": "conn",
		"scale": "scale", "hetero": "hetero", "nosuch": "", "topk": "", "": "",
	} {
		got, err := selectExperiments(exp)
		listed := err != nil && strings.Contains(err.Error(), "hetero") // the error names the valid ones
		if listed != (want == "") || strings.Join(got, " ") != want {
			t.Errorf("-exp %q: got %v, %v; want %q", exp, got, err, want)
		}
	}
}
