package repro.core

/** Schema-agnostic tokenization.
  *
  * The blocker treats every profile as a bag of words (§1 of the paper):
  * values are lowercased and split on any non-letter/non-digit run, and
  * tokens shorter than `minLength` are dropped. There is no stopword list:
  * purging removes the huge blocks of stopwords.
  */
object Tokenizer {

  /** Default minimum token length; 1 keeps model numbers like "x5". */
  val DefaultMinLength = 1

  private val splitter = "[^\\p{L}\\p{N}]+".r

  /** Tokenize one raw value. Deterministic; preserves duplicates. */
  def tokenize(value: String, minLength: Int = DefaultMinLength): Seq[String] =
    if (value == null) Seq.empty
    else
      splitter
        .split(value.toLowerCase)
        .iterator
        .filter(t => t.length >= minLength)
        .toSeq

  /** Distinct token set of one value — blocking keys are sets. */
  def tokenSet(value: String, minLength: Int = DefaultMinLength): Set[String] =
    tokenize(value, minLength).toSet
}
