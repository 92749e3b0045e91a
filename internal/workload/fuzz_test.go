package workload

import (
	"bytes"
	"io"
	"testing"
)

// FuzzTraceReader feeds arbitrary record bytes behind a valid trace
// header. Read must never panic, and the records it returns must
// re-encode through TraceWriter to exactly the bytes they came from: a
// prefix of the input, and the whole input when the trace ends cleanly.
// The committed seeds are the malformed records the reader once took
// as valid: a record cut one byte in, kind 2, dtype 9 and approx 2.
func FuzzTraceReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 2, 0, 0, 3, 0, 4, 0, 1, 0, 1, 1, 7, 0, 0, 0}) // a control and a data record
	f.Fuzz(func(t *testing.T, body []byte) {
		var out bytes.Buffer
		w, err := NewTraceWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		header := out.Len()
		r, err := NewTraceReader(bytes.NewReader(append(out.Bytes()[:header:header], body...)))
		if err != nil {
			t.Fatal(err)
		}
		for {
			rec, err := r.Read()
			if err != nil {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				got := out.Bytes()[header:]
				if !bytes.HasPrefix(body, got) {
					t.Fatalf("records re-encode to % x, not a prefix of the input % x", got, body)
				}
				if (err == io.EOF) != (len(got) == len(body)) {
					t.Fatalf("read ended with %v after re-encoding %d of %d input bytes", err, len(got), len(body))
				}
				return
			}
			if err := w.Write(rec); err != nil {
				t.Fatalf("record %+v read back but does not re-encode: %v", rec, err)
			}
		}
	})
}
