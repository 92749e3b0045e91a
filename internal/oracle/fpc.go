package oracle

import (
	"fmt"

	"approxnoc/internal/value"
)

// Reference FP-COMP: a literal transcription of the Fig. 5 frequent
// pattern table, exact matching only (the threshold-0 contract). Each
// word is tried against the rows in priority order with the match
// condition written out longhand; zero words coalesce into runs of up to
// eight, exactly as the optimized encoder does.

func seMatch(w value.Word, fromBits uint) bool {
	shift := 32 - fromBits
	return uint32(int32(w<<shift)>>shift) == w
}

func halfSEByte(h uint16) bool {
	return uint16(int16(int8(uint8(h)))) == h
}

// FPCEncode returns the reference network representation of an exact
// FP-COMP encoding: the packed payload and its length in bits.
func FPCEncode(words []value.Word) (payload []byte, bits int) {
	var b bitstring
	i := 0
	for i < len(words) {
		if words[i] == 0 {
			run := 0
			for i < len(words) && words[i] == 0 && run < 8 {
				run++
				i++
			}
			b.append(0b000, 3)
			b.append(uint32(run-1), 3)
			continue
		}
		w := words[i]
		switch {
		case seMatch(w, 4):
			b.append(0b001, 3)
			b.append(w&0xF, 4)
		case seMatch(w, 8):
			b.append(0b010, 3)
			b.append(w&0xFF, 8)
		case seMatch(w, 16):
			b.append(0b011, 3)
			b.append(w&0xFFFF, 16)
		case w&0xFFFF == 0:
			b.append(0b100, 3)
			b.append(w>>16, 16)
		case halfSEByte(uint16(w>>16)) && halfSEByte(uint16(w)):
			b.append(0b101, 3)
			b.append((w>>8)&0xFF00|w&0xFF, 16)
		default:
			b.append(0b111, 3)
			b.append(w, 32)
		}
		i++
	}
	return b.packed(), b.len()
}

// FPCDecode independently decodes a frequent-pattern payload back into
// numWords words, erroring on truncation, overlong zero runs, or the
// unused 110 prefix; beside an error it returns the words of the codes
// that decoded whole before it (an overlong run included).
func FPCDecode(payload []byte, numWords int) ([]value.Word, error) {
	c := &bitcursor{buf: payload}
	words := make([]value.Word, 0, numWords)
	for len(words) < numWords {
		prefix, err := c.read(3)
		if err != nil {
			return words, err
		}
		switch prefix {
		case 0b000:
			run, err := c.read(3)
			if err != nil {
				return words, err
			}
			for j := uint32(0); j <= run; j++ {
				words = append(words, 0)
			}
			if len(words) > numWords {
				return words, fmt.Errorf("oracle: zero run overflows the block (%d > %d words)", len(words), numWords)
			}
		case 0b001:
			d, err := c.read(4)
			if err != nil {
				return words, err
			}
			words = append(words, uint32(int32(d<<28)>>28))
		case 0b010:
			d, err := c.read(8)
			if err != nil {
				return words, err
			}
			words = append(words, uint32(int32(d<<24)>>24))
		case 0b011:
			d, err := c.read(16)
			if err != nil {
				return words, err
			}
			words = append(words, uint32(int32(d<<16)>>16))
		case 0b100:
			d, err := c.read(16)
			if err != nil {
				return words, err
			}
			words = append(words, d<<16)
		case 0b101:
			d, err := c.read(16)
			if err != nil {
				return words, err
			}
			hi := uint32(uint16(int16(int8(uint8(d >> 8)))))
			lo := uint32(uint16(int16(int8(uint8(d)))))
			words = append(words, hi<<16|lo)
		case 0b111:
			d, err := c.read(32)
			if err != nil {
				return words, err
			}
			words = append(words, d)
		default:
			return words, fmt.Errorf("oracle: unused frequent-pattern prefix %03b", prefix)
		}
	}
	return words, nil
}
