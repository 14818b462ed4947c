package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // substring of stdout
		stderr string // substring of stderr
	}{
		{"mos fails brk-shrink-fault", []string{"-case", "brk-shrink-fault", "-kernel", "mos"}, 0,
			"brk-shrink-fault on mos: FAIL (brk-shrink-retains-memory)\n", ""},
		{"linux passes brk-shrink-fault", []string{"-case", "brk-shrink-fault", "-kernel", "linux"}, 0,
			"brk-shrink-fault on linux: PASS\n", ""},
		{"unknown case", []string{"-case", "no-such-case", "-kernel", "linux"}, 1,
			"", `unknown LTP case "no-such-case"`},
		{"unknown kernel", []string{"-case", "brk-shrink-fault", "-kernel", "windows"}, 1,
			"", `unknown kernel "windows"`},
		{"unknown flag", []string{"-nope"}, 2, "", "flag provided but not defined"},
		{"positional argument", []string{"-failed", "brk-shrink-fault"}, 2, "", `unexpected arguments ["brk-shrink-fault"]`},
		{"failure causes", []string{"-failed"}, 0, "\nmos failure causes:\n", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
		})
	}
}
