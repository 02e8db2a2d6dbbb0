// Command ibfsck audits — and with -repair, fixes — a campaign or
// scheduler state directory offline, using the same verification rules
// the resume paths apply at startup: journal frames must CRC, the
// record stream must replay, and every referenced image must pass its
// integrity seal.
//
// Usage:
//
//	ibfsck DIR              audit only; report what resume would salvage
//	ibfsck -repair DIR      sweep stale temps, truncate the journal to
//	                        its externally consistent prefix
//	ibfsck -json DIR        machine-readable report on stdout
//
// Repair never deletes device images: older checkpoint generations are
// exactly what a degraded resume falls back on. Corrupt checkpoints,
// rebuildable result files, and quarantinable campaigns are reported
// but left to resume, which has the journaled machinery (ckptbad,
// rebuild, quarantine) to handle them accountably.
//
// Exit status: 0 when the directory is clean (or repair fixed every
// repairable finding), 1 when problems remain, 2 on usage or I/O
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"invisiblebits/internal/fsck"
)

func main() {
	var (
		repair  = flag.Bool("repair", false, "apply offline-safe fixes (sweep temps, truncate journal)")
		jsonOut = flag.Bool("json", false, "print the report as JSON")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ibfsck [-repair] [-json] DIR")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	dir := flag.Arg(0)

	var rep *fsck.Report
	var err error
	if *repair {
		rep, err = fsck.Repair(nil, dir)
	} else {
		rep, err = fsck.Audit(nil, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibfsck:", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "ibfsck:", err)
			os.Exit(2)
		}
	} else {
		printReport(os.Stdout, rep)
	}

	switch {
	case rep.Clean():
		os.Exit(0)
	case rep.Repaired && !rep.Unrecoverable():
		// Every repairable finding was fixed; the directory now resumes
		// cleanly (corrupt checkpoints are struck by resume itself).
		os.Exit(0)
	default:
		os.Exit(1)
	}
}

func printReport(w io.Writer, rep *fsck.Report) {
	fmt.Fprintf(w, "ibfsck: %s state directory %s\n", rep.Kind, rep.Dir)
	fmt.Fprintf(w, "  journal: %d records verify (%d bytes)", rep.JournalRecords, rep.ValidLen)
	if rep.DroppedBytes > 0 {
		fmt.Fprintf(w, "; %d records / %d bytes beyond the consistent prefix", rep.DroppedRecords, rep.DroppedBytes)
		if rep.Reason != "" {
			fmt.Fprintf(w, " (%s)", rep.Reason)
		}
	}
	fmt.Fprintln(w)
	for _, f := range rep.Findings {
		fmt.Fprintf(w, "  [%s] %s: %s\n          -> %s\n", f.Severity, f.Path, f.Problem, f.Action)
	}
	switch {
	case rep.Repaired:
		// The report describes the directory as it was found, so its
		// temps are what the repair swept and its dropped bytes what it
		// truncated.
		var done []string
		if n := len(rep.TempFiles); n > 0 {
			done = append(done, fmt.Sprintf("%d temp files swept", n))
		}
		if rep.DroppedBytes > 0 {
			done = append(done, fmt.Sprintf("journal truncated to %d bytes", rep.ValidLen))
		}
		if len(done) == 0 {
			done = append(done, "nothing to sweep or truncate")
		}
		fmt.Fprintf(w, "ibfsck: repaired: %s\n", strings.Join(done, ", "))
	case rep.Clean():
		fmt.Fprintln(w, "ibfsck: clean")
	default:
		fmt.Fprintln(w, "ibfsck: problems found (run with -repair to fix the repairable ones)")
	}
}
