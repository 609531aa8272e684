//! Dataset descriptors for the paper's evaluation suite.

use std::fmt;

/// The datasets used in the paper's evaluation (Sec. VII-A).
///
/// Only the *geometry* matters for performance simulation: image datasets
/// fix the input resolution of spiking CNNs and vision transformers, NLP
/// datasets fix the sequence length of the spiking language models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// CIFAR-10: 32×32 RGB, 10 classes.
    Cifar10,
    /// CIFAR-100: 32×32 RGB, 100 classes.
    Cifar100,
    /// CIFAR10-DVS: 128×128 event stream, commonly downsampled to 48×48
    /// frames, 10 classes.
    Cifar10Dvs,
    /// MNIST: 28×28 grayscale, 10 classes.
    Mnist,
    /// SST-2 sentiment (GLUE), binary.
    Sst2,
    /// SST-5 fine-grained sentiment, 5 classes.
    Sst5,
    /// Movie Review polarity, binary.
    Mr,
    /// Quora Question Pairs (GLUE), binary.
    Qqp,
    /// MultiNLI (GLUE), 3 classes.
    Mnli,
}

impl Dataset {
    /// `(channels, height, width)` for image datasets; `None` for text.
    pub fn image_shape(&self) -> Option<(usize, usize, usize)> {
        match self {
            Dataset::Cifar10 | Dataset::Cifar100 => Some((3, 32, 32)),
            Dataset::Cifar10Dvs => Some((2, 48, 48)),
            Dataset::Mnist => Some((1, 28, 28)),
            _ => None,
        }
    }

    /// Token sequence length for NLP datasets; `None` for images.
    pub fn seq_len(&self) -> Option<usize> {
        match self {
            Dataset::Sst2 | Dataset::Sst5 | Dataset::Mr => Some(128),
            Dataset::Qqp | Dataset::Mnli => Some(256), // sentence pairs
            _ => None,
        }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        match self {
            Dataset::Cifar10 | Dataset::Cifar10Dvs | Dataset::Mnist => 10,
            Dataset::Cifar100 => 100,
            Dataset::Sst2 | Dataset::Mr | Dataset::Qqp => 2,
            Dataset::Sst5 => 5,
            Dataset::Mnli => 3,
        }
    }

    /// `true` for image (CV) datasets.
    pub fn is_vision(&self) -> bool {
        self.image_shape().is_some()
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dataset::Cifar10 => "CIFAR10",
            Dataset::Cifar100 => "CIFAR100",
            Dataset::Cifar10Dvs => "CIFAR10DVS",
            Dataset::Mnist => "MNIST",
            Dataset::Sst2 => "SST-2",
            Dataset::Sst5 => "SST-5",
            Dataset::Mr => "MR",
            Dataset::Qqp => "QQP",
            Dataset::Mnli => "MNLI",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vision_datasets_have_image_shape() {
        for d in [
            Dataset::Cifar10,
            Dataset::Cifar100,
            Dataset::Cifar10Dvs,
            Dataset::Mnist,
        ] {
            assert!(d.is_vision());
            assert!(d.image_shape().is_some());
            assert!(d.seq_len().is_none());
        }
    }

    #[test]
    fn nlp_datasets_have_seq_len() {
        for d in [
            Dataset::Sst2,
            Dataset::Sst5,
            Dataset::Mr,
            Dataset::Qqp,
            Dataset::Mnli,
        ] {
            assert!(!d.is_vision());
            assert!(d.seq_len().is_some());
        }
    }

    #[test]
    fn class_counts() {
        assert_eq!(Dataset::Cifar100.classes(), 100);
        assert_eq!(Dataset::Sst5.classes(), 5);
        assert_eq!(Dataset::Mnli.classes(), 3);
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(Dataset::Cifar10Dvs.to_string(), "CIFAR10DVS");
        assert_eq!(Dataset::Sst2.to_string(), "SST-2");
    }
}
