// Package statsuse exercises statsdiscipline outside internal/iosim: every
// direct mutation of an iosim.Stats value — field write, increment,
// whole-struct store through a pointer, address-of-field — is flagged; the
// Stats methods and Add are the only sanctioned write paths. Fields promoted
// through a struct that embeds Stats are still Stats fields.
package statsuse

import "fixture/internal/iosim"

func bad(st *iosim.Stats, n int64) {
	st.BytesRead = n    // want "direct write to iosim.Stats field BytesRead"
	st.BytesRead += n   // want "direct write to iosim.Stats field BytesRead"
	st.Seeks++          // want "direct increment of iosim.Stats field Seeks"
	*st = iosim.Stats{} // want "whole-struct write through a .iosim.Stats"
	_ = &st.BytesRead   // want "address of iosim.Stats field BytesRead"
}

func good(st, other *iosim.Stats, n int64) {
	st.Read(n)
	st.Add(other)
	snapshot := *st // reading a copy never mutates the owner's value
	_ = snapshot
	total := st.BytesRead + st.Seeks // plain reads are free
	_ = total
}

// stage embeds Stats the way a trace stage's counters do.
type stage struct {
	iosim.Stats
	Rows int64
}

func badEmbedded(sc *stage, n int64) {
	sc.BytesRead += n // want "direct write to iosim.Stats field BytesRead"
	sc.Seeks++        // want "direct increment of iosim.Stats field Seeks"
	sc.Stats.Seeks++  // want "direct increment of iosim.Stats field Seeks"
	_ = &sc.BytesRead // want "address of iosim.Stats field BytesRead"
	outer := struct{ stage }{}
	outer.Seeks = n // want "direct write to iosim.Stats field Seeks"
}

func goodEmbedded(sc, other *stage, n int64) {
	sc.Rows++ // the embedding struct's own fields are its business
	sc.Read(n)
	sc.Stats.Add(&other.Stats)
	_ = sc.BytesRead + sc.Rows
}
