package classify

import (
	"fmt"

	"osprof/internal/core"
	"osprof/internal/store"
)

// FromArchive builds the reference corpus from every archived run that
// carries label metadata (`osprof corpus build` records them; ordinary
// matrix and ad-hoc runs have no label and are skipped). All labeled
// entries participate, so re-recording the corpus under additional
// seeds widens each centroid instead of replacing it. A second value
// reports how many archived runs were labeled; zero means the archive
// holds no corpus yet.
//
// An archive accepts envelopes at any bucket resolution, but EMD
// compares bucket axes positionally, so one corpus must live at one
// resolution. Rather than letting a single stray ingest poison
// identification for everyone (BuildCorpus would error), FromArchive
// keeps the resolution most of the labeled runs share — ties broken
// toward the lower resolution, deterministically — and drops the rest;
// an unknown run at a dropped resolution then abstains with a
// resolution-mismatch reason instead of erroring. The labeled count
// reflects only the runs kept.
func FromArchive(arch *store.Archive) (*Corpus, int, error) {
	// The index mirrors each run's label, so unlabeled runs — the bulk
	// of a long-lived regression archive — are skipped without loading
	// their objects.
	scan, err := arch.ListLabeled()
	if err != nil {
		return nil, 0, fmt.Errorf("classify: %w", err)
	}
	byR := make(map[int][]*core.Run)
	for _, e := range scan {
		run, err := arch.Get(e.ID)
		if err != nil {
			return nil, 0, fmt.Errorf("classify: %w", err)
		}
		if run.Meta[LabelMetaKey] != "" && run.Set != nil {
			byR[run.Set.R] = append(byR[run.Set.R], run)
		}
	}
	keep := 0
	for r, runs := range byR {
		if keep == 0 || len(runs) > len(byR[keep]) ||
			(len(runs) == len(byR[keep]) && r < keep) {
			keep = r
		}
	}
	corpus, err := BuildCorpus(byR[keep])
	if err != nil {
		return nil, 0, err
	}
	return corpus, len(byR[keep]), nil
}
