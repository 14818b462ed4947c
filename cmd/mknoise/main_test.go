package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string // substring of stderr
	}{
		{"zero iterations", []string{"-iters", "0"}, "-iters 0: want at least 1"},
		{"negative iterations", []string{"-iters", "-3"}, "-iters -3: want at least 1"},
		{"unknown flag", []string{"-nope"}, "flag provided but not defined"},
		{"positional argument", []string{"linux"}, `unexpected arguments ["linux"]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout:\n%s", stdout.String())
			}
			for _, want := range []string{tc.stderr, "Usage of mknoise:"} {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
				}
			}
		})
	}
}

func TestEverySectionRenders(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ftq", "-counters", "-metrics", "-hist", "-iters", "500"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"FWQ, 1 ms work quanta, 500 iterations per kernel\n",
		"FTQ, 1 ms windows, 500 iterations per kernel\n",
		"Per-source detour attribution",
		"FWQ detour distributions",
		"linux FWQ iteration-time distribution:\n",
		"mckernel FWQ iteration-time distribution:\n",
		"mos FWQ iteration-time distribution:\n",
		"collective amplification at scale (Fig. 5b).\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %s", stderr.String())
	}
}
