package exec

import (
	"fmt"
	"time"

	"repro/internal/iosim"
	"repro/internal/obs"
)

// stageRec slices a query's single Stats accumulator into per-stage trace
// records: each rec() call attributes everything charged since the previous
// call (plus its own wall clock) to one named stage. A nil *stageRec is
// valid and records nothing, so untraced executions pay one pointer test
// per stage boundary — never per block or per row.
type stageRec struct {
	tr   *obs.Trace
	prev iosim.Stats
	t    time.Time
}

// newStageRec starts stage recording at st's current value; returns nil
// when tr is nil.
func newStageRec(tr *obs.Trace, st *iosim.Stats) *stageRec {
	if tr == nil {
		return nil
	}
	return &stageRec{tr: tr, prev: *st, t: time.Now()}
}

// rec closes the current stage: the Stats delta since the last boundary
// becomes one stage record with the given rows/tombstone counts.
func (r *stageRec) rec(name, detail string, st *iosim.Stats, rowsIn, rowsOut, tombstoned int64) {
	if r == nil {
		return
	}
	now := time.Now()
	r.tr.AddStage(name, detail, obs.StageCounters{
		Stats:      st.Sub(r.prev),
		RowsIn:     rowsIn,
		RowsOut:    rowsOut,
		Tombstoned: tombstoned,
		WallNs:     now.Sub(r.t).Nanoseconds(),
	})
	r.prev = *st
	r.t = now
}

// probeDetail names one fact probe for trace stages, mirroring Explain's
// plan rendering in compact form.
func probeDetail(p *factProbe) string {
	switch {
	case p.isPred:
		return fmt.Sprintf("%s %s", p.col.Name, predString(p))
	case p.dense != nil:
		return fmt.Sprintf("%s IN dense-bitmap[%d keys]", p.col.Name, p.keyCount())
	default:
		return fmt.Sprintf("%s IN hash-set[%d keys]", p.col.Name, p.keyCount())
	}
}
