package token

import "strings"

// trieNode is one level of the multi-word keyword trie. Each edge is a
// single upper-case word; a node with kind != Illegal terminates a phrase.
// A node has few children, so they are a slice searched in order.
type trieNode struct {
	kind Kind // Illegal when this node does not end a keyword phrase
	next []trieEdge
}

type trieEdge struct {
	word string
	node *trieNode
}

// roots holds the first words of the keyword phrases, bucketed by their
// first letter. Every keyword word is upper-case, so a word starting with
// any other byte begins no phrase.
var roots [26][]trieEdge

func init() {
	for kind, phrase := range Phrases {
		edges := &roots[phrase[0]-'A']
		var n *trieNode
		for _, w := range strings.Fields(phrase) {
			n = child(edges, w)
			edges = &n.next
		}
		n.kind = kind
	}
}

// child returns the node under the edge labelled w, adding it if absent.
func child(edges *[]trieEdge, w string) *trieNode {
	for _, e := range *edges {
		if e.word == w {
			return e.node
		}
	}
	n := &trieNode{kind: Illegal}
	*edges = append(*edges, trieEdge{w, n})
	return n
}

// Matcher performs incremental longest-match keyword recognition.
// The lexer feeds it one word at a time; the matcher tracks the longest
// complete phrase seen so far and how many words past it have been
// consumed. The zero Matcher is ready for a new phrase.
type Matcher struct {
	node     *trieNode // nil until the first word matches
	best     Kind      // longest complete phrase so far (Illegal if none)
	bestLen  int       // words in best
	consumed int       // words fed
}

// Feed advances the matcher with the next word. It returns false when the
// word does not extend any keyword phrase, at which point the caller should
// consult Best for the longest complete phrase seen. A first word costs one
// search of its letter's bucket, and none when it does not start with an
// upper-case letter.
func (m *Matcher) Feed(word string) bool {
	var edges []trieEdge
	if m.node != nil {
		edges = m.node.next
	} else if word != "" && word[0] >= 'A' && word[0] <= 'Z' {
		edges = roots[word[0]-'A']
	}
	for _, e := range edges {
		if e.word == word {
			m.node = e.node
			m.consumed++
			if e.node.kind != Illegal {
				m.best = e.node.kind
				m.bestLen = m.consumed
			}
			return true
		}
	}
	return false
}

// CanExtend reports whether a longer phrase is still possible.
func (m *Matcher) CanExtend() bool { return m.node == nil || len(m.node.next) > 0 }

// Best returns the longest complete keyword phrase matched so far and the
// number of words it spans. Kind is Illegal when no phrase matched.
func (m *Matcher) Best() (Kind, int) { return m.best, m.bestLen }
