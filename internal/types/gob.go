package types

import "fmt"

// Value is a tagged union with unexported fields, so it implements
// gob.GobEncoder/GobDecoder explicitly, as thin wrappers over the value
// codec (codec.go). This is what lets the MPP wire protocol gob-ship
// parsed statements (whose Literal nodes hold Values) between
// coordinator and shard servers without a SQL renderer.

// GobEncode implements gob.GobEncoder.
func (v Value) GobEncode() ([]byte, error) {
	return AppendValue(nil, v), nil
}

// GobDecode implements gob.GobDecoder.
func (v *Value) GobDecode(b []byte) error {
	dv, n, err := DecodeValue(b)
	if err != nil {
		return err
	}
	if n != len(b) {
		return fmt.Errorf("types: gob-decode: %d trailing bytes", len(b)-n)
	}
	*v = dv
	return nil
}
