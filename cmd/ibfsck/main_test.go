package main

import (
	"bytes"
	"strings"
	"testing"

	"invisiblebits/internal/fsck"
)

// TestPrintReportNamesOnlyWhatWasDone: the repair line names the sweep
// and the truncation only when the repair did them, and an audit whose
// only finding is info prints clean.
func TestPrintReportNamesOnlyWhatWasDone(t *testing.T) {
	quarantined := []fsck.Finding{{
		Severity: fsck.SevInfo, Path: "campaigns/qc",
		Problem: "campaign already quarantined by an earlier resume",
		Action:  "no action; quarantine is terminal",
	}}
	for _, tc := range []struct {
		name string
		rep  fsck.Report
		want string
	}{
		{"audit, info only", fsck.Report{ValidLen: 280, Findings: quarantined}, "ibfsck: clean\n"},
		{"repair, nothing to do", fsck.Report{ValidLen: 280, Findings: quarantined, Repaired: true},
			"ibfsck: repaired: nothing to sweep or truncate\n"},
		{"repair, temps only", fsck.Report{ValidLen: 280, TempFiles: []string{"a.tmp1"}, Repaired: true},
			"ibfsck: repaired: 1 temp files swept\n"},
		{"repair, both", fsck.Report{ValidLen: 280, DroppedBytes: 9, TempFiles: []string{"a.tmp1", "b.tmp2"}, Repaired: true},
			"ibfsck: repaired: 2 temp files swept, journal truncated to 280 bytes\n"},
	} {
		var out bytes.Buffer
		printReport(&out, &tc.rep)
		if !strings.HasSuffix(out.String(), tc.want) {
			t.Errorf("%s: report ends\n%s\nwant %q", tc.name, out.String(), tc.want)
		}
	}
}
