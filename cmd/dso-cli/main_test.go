package main

import (
	"os"
	"strings"
	"testing"
)

func TestArgListParsing(t *testing.T) {
	var a argList
	for _, s := range []string{"5", "2.5", "hello"} {
		if err := a.Set(s); err != nil {
			t.Fatal(err)
		}
	}
	if a[0].(int64) != 5 || a[1].(float64) != 2.5 || a[2].(string) != "hello" {
		t.Fatalf("argList = %v", a)
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

func TestStaticViewParsing(t *testing.T) {
	v, err := staticView("b=:2,a=:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Members) != 2 || v.Members[0] != "a" {
		t.Fatalf("members = %v", v.Members)
	}
	if v.Addrs["b"] != ":2" {
		t.Fatalf("addrs = %v", v.Addrs)
	}
	if _, err := staticView(""); err == nil {
		t.Fatal("empty members accepted")
	}
	if _, err := staticView("bogus"); err == nil {
		t.Fatal("malformed member accepted")
	}
}

// The partition ops are refused before their flags are parsed, so an old
// command line fails with "unknown op" instead of a flag error, and no
// node is contacted.
func TestChaosRefusesPartitionOps(t *testing.T) {
	stderr := os.Stderr
	t.Cleanup(func() { os.Stderr = stderr })
	for _, argv := range [][]string{
		{"partition", "-members", "n1=127.0.0.1:1", "-group", "n1", "-group", "n2"},
		{"partition-one-way", "-members", "n1=127.0.0.1:1", "-from", "n1", "-to", "n2"},
		{"heal", "-members", "n1=127.0.0.1:1"},
	} {
		f, err := os.CreateTemp(t.TempDir(), "stderr")
		if err != nil {
			t.Fatal(err)
		}
		os.Stderr = f
		rc := runChaos(argv)
		os.Stderr = stderr
		_ = f.Close()
		out, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if rc != 1 || !strings.Contains(string(out), "unknown op") {
			t.Fatalf("runChaos(%v) = %d, stderr %q; want 1 and unknown op", argv, rc, out)
		}
	}
}
