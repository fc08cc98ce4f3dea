package checker

import "aft/internal/telemetry"

// RegisterVerdict publishes a replay verdict under aft_checker_*: the
// replay volume and each anomaly class, so a chaos campaign's outcome is
// scrapeable alongside the injected-fault counters. source is read at
// scrape time — register a closure over the latest verdict and each
// re-check is reflected on the next scrape. Only a test calls it: the root
// package's TestTelemetryFullStackExposition.
func RegisterVerdict(reg *telemetry.Registry, source func() Verdict) {
	if source == nil {
		return
	}
	reg.Register(func(e *telemetry.Emitter) {
		v := source()
		g := func(name, help string, n int) {
			e.Gauge("aft_checker_"+name, help, float64(n))
		}
		g("requests", "Recorded traces replayed (attempts included).", v.Requests)
		g("commits", "Known-committed transactions in the history.", v.Commits)
		g("reads", "Read observations replayed.", v.Reads)
		g("final_keys", "Keys checked by the final-state pass.", v.FinalKeys)
		g("anomalies", "Total anomalies across all classes.", v.Anomalies())
		e.Gauge("aft_checker_violations",
			"Anomalies by class (zero everywhere on a clean run).",
			float64(v.DirtyReads), "class", "dirty_read")
		e.Gauge("aft_checker_violations", "",
			float64(v.AbortedReads), "class", "aborted_read")
		e.Gauge("aft_checker_violations", "",
			float64(v.RYW), "class", "ryw")
		e.Gauge("aft_checker_violations", "",
			float64(v.FracturedReads), "class", "fractured_read")
		e.Gauge("aft_checker_violations", "",
			float64(v.NonRepeatableReads), "class", "non_repeatable_read")
		e.Gauge("aft_checker_violations", "",
			float64(v.LostWrites), "class", "lost_write")
	})
}
