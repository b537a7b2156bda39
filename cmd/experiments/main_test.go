package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error; empty means success
		wantOut string // substring of stdout on success
	}{
		{
			name:    "unknown only id",
			args:    []string{"-only", "fig6,fgi7"},
			wantErr: `unknown experiment "fgi7"`,
		},
		{
			name:    "unknown workload",
			args:    []string{"-only", "fig6", "-workloads", "nope"},
			wantErr: `workload "nope"`,
		},
		{
			name:    "unknown spec",
			args:    []string{"-only", "fig1", "-fast-spec", "nope"},
			wantErr: `unknown spec "nope"`,
		},
		{
			name:    "ablation renders",
			args:    []string{"-only", "ablation-pods", "-requests", "5000", "-workloads", "cactus"},
			wantOut: "Pod-count ablation",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run(%q) error = %v, want one containing %q", tc.args, err, tc.wantErr)
				}
				if stdout.Len() != 0 {
					t.Fatalf("run(%q) failed but printed %q", tc.args, stdout.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%q): %v\nstderr:\n%s", tc.args, err, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantOut) {
				t.Fatalf("run(%q) stdout lacks %q:\n%s", tc.args, tc.wantOut, stdout.String())
			}
		})
	}
}

// TestServeMatchesSerial runs the same selection serially and through a
// coordinator with its local loopback worker: stdout must be identical.
func TestServeMatchesSerial(t *testing.T) {
	args := []string{"-only", "fig6", "-requests", "5000", "-workloads", "cactus"}
	var serial, served, stderr bytes.Buffer
	if err := run(args, &serial, &stderr); err != nil {
		t.Fatalf("serial run: %v\nstderr:\n%s", err, stderr.String())
	}
	stderr.Reset()
	if err := run(append(args, "-serve", "127.0.0.1:0"), &served, &stderr); err != nil {
		t.Fatalf("served run: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), " 0 leased, 0 pending, 0 failed") {
		t.Fatalf("served run did not finish every cell:\n%s", stderr.String())
	}
	if serial.Len() == 0 || !bytes.Equal(serial.Bytes(), served.Bytes()) {
		t.Fatalf("served stdout differs from serial\nserial:\n%s\nserved:\n%s", serial.String(), served.String())
	}
}
