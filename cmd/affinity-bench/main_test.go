package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestBenchSingleExperiments(t *testing.T) {
	// A very small scale keeps this smoke test fast while running every listed
	// experiment, so an id without a runExperiment case fails here and not at
	// the first full run.
	var out bytes.Buffer
	err := run([]string{
		"-experiment", "all", "-series-div", "40", "-sample-div", "10",
	}, &out)
	if err != nil {
		t.Fatalf("experiment all: %v\n%s", err, out.String())
	}
	for _, exp := range experimentOrder {
		if !strings.Contains(out.String(), "=== "+exp+" ===") {
			t.Fatalf("experiment %s: missing header in output:\n%s", exp, out.String())
		}
	}
}

func TestBenchTradeoffAndTable4(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "fig9", "-series-div", "40", "-sample-div", "10"}, &out); err != nil {
		t.Fatalf("fig9: %v", err)
	}
	if !strings.Contains(out.String(), "speedup") {
		t.Fatalf("fig9 output missing speedup column:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-experiment", "table4", "-series-div", "40", "-sample-div", "10"}, &out); err != nil {
		t.Fatalf("table4: %v", err)
	}
	if !strings.Contains(out.String(), "speedup vs WN") {
		t.Fatalf("table4 output missing speedups:\n%s", out.String())
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	// "shard" is a retired extension driver: bench/ measures that layer now.
	for _, exp := range []string{"bogus", "shard"} {
		var out bytes.Buffer
		err := run([]string{"-experiment", exp, "-series-div", "40", "-sample-div", "10"}, &out)
		if err == nil || !strings.Contains(err.Error(), "known: table3") {
			t.Fatalf("experiment %s: err = %v, want the known-id list", exp, err)
		}
	}
}

func TestBenchRejectsDivisorBelowOne(t *testing.T) {
	for _, args := range [][]string{
		{"-series-div", "0"},
		{"-sample-div", "0"},
		{"-series-div", "-3"},
		{"-sample-div", "-1"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-experiment", "table3"}, args...), &out)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Fatalf("%v: err = %v, want an error naming %s", args, err, args[0])
		}
		if out.Len() != 0 {
			t.Fatalf("%v: ran before rejecting the divisor:\n%s", args, out.String())
		}
	}
}
