package exp

import (
	"encoding/json"
	"testing"
)

// FuzzParams feeds arbitrary JSON through the distributed sweep's untrusted
// path — a Job list carrying exp.Params, as a coordinator serves it to
// workers — into Params.Config and BuildPlan. Neither may panic, and a
// plan that builds must build again to an equal cell count and Fingerprint,
// the property coordinator and workers rely on to exchange bare indices.
// The seed corpus lives in testdata/fuzz/FuzzParams.
func FuzzParams(f *testing.F) {
	for _, id := range []string{"fig1", "fig6", "fig8", "table1"} {
		b, err := json.Marshal([]Job{{Experiment: id, Params: planConfig().Params()}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		var jobs []Job
		if json.Unmarshal(b, &jobs) != nil {
			return
		}
		for _, job := range jobs {
			_, _ = job.Params.Config() // only a panic fails here
		}
		p, err := BuildPlan(jobs)
		if err != nil {
			return
		}
		again, err := BuildPlan(jobs)
		if err != nil {
			t.Fatalf("plan built once, then failed: %v", err)
		}
		if p.Len() != again.Len() || p.Fingerprint() != again.Fingerprint() {
			t.Fatalf("plan is not deterministic: %d cells %016x, then %d cells %016x",
				p.Len(), p.Fingerprint(), again.Len(), again.Fingerprint())
		}
	})
}
