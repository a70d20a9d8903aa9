package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"launchmon/internal/engine"
	"launchmon/internal/lmonp"
)

func TestDecodeDaemonInfosRejectsImpossibleCount(t *testing.T) {
	// A forged count must fail on the remaining-bytes guard before it
	// sizes a slice: 0x7fffffff infos would ask for ~150 GB.
	for _, b := range [][]byte{
		{0x7f, 0xff, 0xff, 0xff},
		append(lmonp.AppendUint32(nil, 3), make([]byte, 11)...), // 3 infos need ≥ 12 bytes
	} {
		if _, err := decodeDaemonInfos(b); !errors.Is(err, lmonp.ErrTruncated) {
			t.Errorf("decodeDaemonInfos(% x): got %v, want ErrTruncated", b, err)
		}
	}
}

// FuzzDecodeReady drives the FE's ready-message decoder with arbitrary
// payloads: it must never panic or over-allocate, and whatever it accepts
// must survive a re-encode/decode round trip unchanged.
func FuzzDecodeReady(f *testing.F) {
	infos := []DaemonInfo{
		{Rank: 0, Host: "node0", Pid: 101, Tasks: 4, PeakBytes: 4096},
		{Rank: 1, Host: "node1", Pid: 102, Tasks: 4, PeakBytes: 4096},
	}
	tl := engine.Timeline{Entries: []engine.MarkEntry{{Name: "e0", At: 0}, {Name: "e11", At: time.Second}}}
	f.Add(encodeReady(infos, tl, nil))
	f.Add(encodeReady(infos, tl, []byte("obs")))
	f.Add(encodeReady(nil, engine.Timeline{}, nil))
	f.Add(lmonp.AppendBytes(nil, []byte{0x7f, 0xff, 0xff, 0xff}))
	f.Fuzz(func(t *testing.T, b []byte) {
		infos, tl, obsBlob, err := decodeReady(b)
		if err != nil {
			return
		}
		infos2, tl2, obsBlob2, err := decodeReady(encodeReady(infos, tl, obsBlob))
		if err != nil {
			t.Fatalf("re-encoded ready message does not decode: %v", err)
		}
		if !reflect.DeepEqual(infos, infos2) || !reflect.DeepEqual(tl, tl2) || !bytes.Equal(obsBlob, obsBlob2) {
			t.Fatalf("ready round trip changed the message")
		}
	})
}
