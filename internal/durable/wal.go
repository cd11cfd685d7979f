package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// WAL record framing: every record is
//
//	[4 bytes little-endian payload length][4 bytes IEEE CRC32 of payload][payload]
//
// with the payload laid out as codec.go says. A crash can tear the tail
// of the file anywhere — a partial header, a partial payload, or a
// payload whose CRC no longer matches. Recovery treats the first such
// frame as the end of history and truncates the file there; everything
// before it was written (and, under -fsync=always, synced) completely.
// A frame that is whole is a different matter: see RecordError.

// headerSize is the framing overhead per record.
const headerSize = 8

// maxRecordSize bounds a single record so a corrupt length field cannot
// drive recovery into a multi-gigabyte allocation.
const maxRecordSize = 1 << 28

// errTornRecord reports a record that ends (or stops making sense)
// before its framing says it should — the expected shape of the last
// record written during a crash.
var errTornRecord = errors.New("durable: torn record")

// sealFrame fills in the header of a frame whose payload already sits
// after its first headerSize bytes. The frame is what lands on disk and
// what WAL shipping sends to replicas — the CRC travels with the record
// across the network.
func sealFrame(frame []byte) ([]byte, error) {
	payload := frame[headerSize:]
	if len(payload) > maxRecordSize {
		return nil, fmt.Errorf("durable: record of %d bytes exceeds limit %d", len(payload), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// EncodeFrame wraps payload in the WAL framing — the unit WAL shipping
// sends over the wire (internal/cluster), identical to the on-disk
// format so the CRC travels end to end.
func EncodeFrame(payload []byte) ([]byte, error) {
	return sealFrame(append(make([]byte, headerSize, headerSize+len(payload)), payload...))
}

// DecodeFrame reads one framed payload from r: io.EOF at a clean frame
// boundary, an error for a torn or corrupt frame.
func DecodeFrame(r io.Reader) ([]byte, error) { return readFrame(r) }

// appendFrame frames payload and writes it to w, returning the number
// of bytes written.
func appendFrame(w io.Writer, payload []byte) (int, error) {
	frame, err := EncodeFrame(payload)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(frame); err != nil {
		return 0, err
	}
	return len(frame), nil
}

// readFrame reads one framed record from r. It returns errTornRecord
// when the stream ends mid-record or the CRC fails, and io.EOF at a
// clean record boundary.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTornRecord
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxRecordSize {
		return nil, errTornRecord
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTornRecord
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errTornRecord
	}
	return payload, nil
}

// RecordError reports a WAL frame that is whole — its length and CRC
// hold, so no crash tore it — yet cannot extend the history before it:
// it is not a record of this format version, it is out of sequence, or
// replaying it failed. Acknowledged history may sit in and behind such
// a frame, so unlike a torn tail Recover never truncates it away: it
// fails with this error and leaves wal.log as it found it.
type RecordError struct {
	// Offset is where the frame starts in the file or stream scanned.
	Offset int64
	// Err is the reason (ErrSequenceGap for a record out of sequence).
	Err error
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("WAL record at offset %d: %v", e.Offset, e.Err)
}

func (e *RecordError) Unwrap() error { return e.Err }

// scanWAL is the one loop over a stream of framed records: crash
// recovery, a standby reopening its shipped WAL and a standby taking a
// shipment all run it. The sequence comes from each record's header;
// the body is next's to decode, if it wants it. From position from, a
// record at or below from is skipped (the snapshot, or an earlier
// shipment, covers it), the record one past the position reached goes
// to next and advances the position, and anything else stops the scan:
// errTornRecord for a frame-level fault, a *RecordError for a whole
// frame that is foreign, out of sequence, or that next refused. It
// returns the position reached and the bytes consumed before the frame
// it stopped at.
func scanWAL(r io.Reader, from int64, next func(seq int64, payload []byte) error) (seq, offset int64, err error) {
	seq = from
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			return seq, offset, nil
		}
		// A zero-filled tail reads as frames of length 0 and CRC 0, which
		// is the CRC of nothing: whole by the framing, torn by any sense.
		if err != nil || len(payload) == 0 {
			return seq, offset, errTornRecord
		}
		rseq, err := recordSeq(payload)
		switch {
		case err != nil || rseq <= from:
		case rseq != seq+1:
			err = fmt.Errorf("%w: record %d after %d", ErrSequenceGap, rseq, seq)
		default:
			if err = next(rseq, payload); err == nil {
				seq = rseq
			}
		}
		if err != nil {
			return seq, offset, &RecordError{Offset: offset, Err: err}
		}
		offset += int64(headerSize + len(payload))
	}
}
